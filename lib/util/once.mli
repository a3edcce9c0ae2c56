(** A value computed at most once, on first use, that domains may share.

    [Lazy.force] raises when two domains force one suspension at the
    same time; a once-cell makes the second wait for the first instead.
    If the computation raises, the cell stays empty and the exception
    propagates: the next {!force} computes again. *)

type 'a t

val make : (unit -> 'a) -> 'a t

val force : 'a t -> 'a
(** The value, computed on the first call under the cell's lock. The
    computation must not force the same cell. *)

val peek : 'a t -> 'a option
(** The value if some {!force} has computed it, without computing it. *)

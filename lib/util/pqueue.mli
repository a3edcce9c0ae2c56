(** Mutable binary min-heap keyed by integer priority. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]; smallest pops first.
    Ties pop in insertion order. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum element, or [None] when empty. *)

val peek : 'a t -> (int * 'a) option

(** {2 Non-allocating accessors}

    [peek]/[pop] box their result; the simulator polls its heaps every
    executed cycle, so the hot paths use these instead. *)

val min_prio : 'a t -> int
(** Priority of the minimum element, or [max_int] when empty. *)

val min_value : 'a t -> 'a
(** Value of the minimum element. Raises [Invalid_argument] when empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum element; no-op when empty. *)

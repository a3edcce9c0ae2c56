(** Bounded, mutex-guarded memo tables for expensive deterministic
    analyses (miss-rate profiles, clusterings, lowered traces, simulation
    results).

    Every cache is string-keyed — callers key on {!content_digest}s or
    explicit parameter strings. Lookups and insertions are serialized by
    a per-cache mutex; {!find_or_compute} runs the computation {e outside}
    the lock, so two domains racing on one key may duplicate
    (deterministic) work but never corrupt the table.

    Caches are bounded: once [cap] entries are present, inserting a new
    key evicts the oldest-inserted entries (FIFO), so long benchmark
    sweeps cannot grow memory without bound. Every cache registers itself
    in a process-wide registry so {!clear_all} can drop all memoized
    state at once. *)

type 'a t

val content_digest : 'a -> string
(** Hex digest of a value marshalled without sharing, so it depends only
    on the contents: two structurally equal values digest alike however
    their blocks are shared. The value must be acyclic and hold no
    closures. *)

val create : ?cap:int -> name:string -> unit -> 'a t
(** A fresh cache holding at most [cap] entries (default 512). [name]
    identifies the cache in {!registered} listings. *)

val name : _ t -> string
val cap : _ t -> int

val length : _ t -> int
(** Current number of entries. *)

val find_opt : 'a t -> string -> 'a option

val set : 'a t -> string -> 'a -> unit
(** Insert (or overwrite) a binding, evicting the oldest entries first
    when the cache is full. *)

val find_or_compute : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_compute t key f] returns the cached value for [key], or runs
    [f ()] (outside the cache lock) and caches its result. *)

val clear : _ t -> unit
(** Drop every entry (the cache stays registered and usable). *)

val clear_all : unit -> unit
(** Clear every cache created so far, process-wide. *)

val registered : unit -> (string * int) list
(** [(name, length)] of every live cache, in creation order. *)

(** Mutable binary min-heap of [int] values keyed by [int] priority.

    Entries live in parallel int arrays, so pushes and pops neither
    allocate (beyond doubling the arrays) nor pass the GC write barrier.
    The simulator polls its heaps every executed cycle. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> int -> int -> unit
(** [push q prio v] inserts [v] with priority [prio]; smallest pops first.
    Ties pop in insertion order. *)

val pop : t -> (int * int) option
(** Remove and return the minimum [(prio, value)], or [None] when empty. *)

val peek : t -> (int * int) option

(** {2 Non-allocating accessors}

    [peek]/[pop] box their result; the hot paths use these instead. *)

val min_prio : t -> int
(** Priority of the minimum element, or [max_int] when empty. *)

val min_value : t -> int
(** Value of the minimum element. Raises [Invalid_argument] when empty. *)

val drop_min : t -> unit
(** Remove the minimum element; no-op when empty. *)

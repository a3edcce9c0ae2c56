(** Concrete data store backing a program's arrays and heap regions.

    The store assigns every array and region a base byte address (aligned
    to a cache line) in a flat synthetic address space, holds the current
    value of every element/field, and translates references to addresses.
    The executor reads and writes through it; the simulator only ever sees
    the byte addresses it produces.

    Representation and cost model: each array and region holds its
    elements in two flat [Bytes] buffers, one tag byte per slot (float,
    int or pointer) and one 8-byte payload per slot (the IEEE bits, or the
    int). The buffers hold no OCaml pointers, so the GC never scans a
    store however large it is. A write stores the tag and the payload in
    place: it allocates nothing and needs no write barrier. A read boxes
    the one {!Ast.value} it returns (2 words for an int or pointer, 4 for
    a float). {!create} fills the buffers and {!copy} duplicates them, a
    memcpy each; {!equal} walks the tags and payloads without boxing. *)

open Ast

type t

val create : ?base:int -> ?align:int -> program -> t
(** Lay out the program's arrays and regions in declaration order starting
    at [base] (default 0x10000), aligning each object to [align] bytes
    (default 64, one cache line). *)

(** {1 Arrays} *)

val get : t -> string -> int -> value
(** [get t a i] is element [i] of array [a]. Out-of-range indices are
    clamped into range (synthetic workloads may compute indices from data;
    clamping keeps the run meaningful without aborting). *)

val set : t -> string -> int -> value -> unit
val addr_of : t -> string -> int -> int
(** Byte address of an element (index clamped like {!get}). *)

val array_base : t -> string -> int
val array_bytes : t -> string -> int

(** {2 Array handles}

    A resolved array, hoisting the name lookup out of access-per-element
    loops (the executor resolves each reference once and then reads the
    address and the value through the handle). *)

type handle

val handle : t -> string -> handle
(** Raises [Invalid_argument] on an unknown array, like {!get}. *)

val h_addr : handle -> int -> int
val h_get : handle -> int -> value
val h_set : handle -> int -> value -> unit

(** {1 Regions (heaps of fixed-size nodes)} *)

val node_addr : t -> string -> int -> int
(** Byte address of node [i]. *)

val node_ptr : t -> string -> int -> value
(** [Vptr] to node [i]; [Vptr 0] is null. *)

val field_get : t -> string -> ptr:int -> field:int -> value
(** Read a field through a node byte address. Raises [Invalid_argument] on
    a null or foreign pointer. *)

val field_set : t -> string -> ptr:int -> field:int -> value -> unit
val field_addr : t -> string -> ptr:int -> field:int -> int

(** {2 Region handles}

    Like array {!handle}s: a resolved region, hoisting the name lookup out
    of per-node access loops (pointer chases hit the same region every
    iteration). *)

type rhandle

val rhandle : t -> string -> rhandle
(** Raises [Invalid_argument] on an unknown region, like {!field_get}. *)

val rh_get : rhandle -> ptr:int -> field:int -> value
val rh_set : rhandle -> ptr:int -> field:int -> value -> unit
val rh_addr : rhandle -> ptr:int -> field:int -> int

(** {1 Whole-store operations} *)

val copy : t -> t

val equal : ?eps:float -> t -> t -> bool
(** Element-wise comparison of all arrays and regions: the element tags
    must match, ints and pointers exactly. Two floats are equal if
    [Float.equal] holds (the same infinity, or two NaNs whatever their
    payloads) or if both are finite and within relative tolerance [eps]
    (default 1e-9). So a store holding a NaN or an infinity equals its own
    {!copy} at any [eps], and an infinity equals no other float. Used by
    the semantic guard and the semantics-preservation property tests. *)

val home_of_addr : t -> nprocs:int -> int -> int
(** Home processor of a byte address under block distribution: each array
    and region is split into [nprocs] contiguous chunks, chunk p living on
    processor p. Addresses outside any object map to processor 0. *)

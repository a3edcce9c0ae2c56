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
    place: it allocates nothing and needs no write barrier. The
    {!section-slots} accessors read a tag and its payload apart and box
    nothing; the [value]-level reads ({!get}, {!field_get}) are wrappers
    over them that box the one {!Ast.value} they return (2 words for an
    int or pointer, 4 for a float). {!create} fills the buffers and
    {!copy} duplicates them, a memcpy each; {!equal} walks the tags and
    payloads without boxing. *)

open Ast

type t

val create : ?base:int -> ?align:int -> program -> t
(** Lay out the program's arrays and regions in declaration order starting
    at [base] (default 0x10000), aligning each object to [align] bytes
    (default 64, one cache line). *)

(** {1:slots Slots}

    The elements of one array or region, addressed by slot index. A
    slot's tag is {!tag_float}, {!tag_int} or {!tag_ptr}; a float's
    payload is read with {!float_at}, an int's or a pointer's with
    {!int_at}. The executor keeps values in these three codes and never
    boxes one. *)

type slots

val tag_float : int
(** 0 *)

val tag_int : int
(** 1 *)

val tag_ptr : int
(** 2 *)

val tag : slots -> int -> int
val int_at : slots -> int -> int
val float_at : slots -> int -> float

val set_int : slots -> int -> tag:int -> int -> unit
(** [set_int s k ~tag n] stores [n] with [tag] ({!tag_int} or
    {!tag_ptr}) in slot [k]. *)

val set_float : slots -> int -> float -> unit

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
val h_slots : handle -> slots
val h_slot : handle -> int -> int
(** The slot element [i] lives in: [i] clamped like {!get}. *)

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

val rh_addr : rhandle -> ptr:int -> field:int -> int
val rh_slots : rhandle -> slots

val rh_slot : rhandle -> ptr:int -> field:int -> int
(** The slot a field lives in; raises like {!field_get} on a null or foreign
    pointer or a field outside the node. *)

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

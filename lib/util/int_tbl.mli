(** Hash table over [int] keys with an identity hash: no polymorphic
    hashing or comparison on lookup. *)

include Hashtbl.S with type key = int

(** Scalar replacement within a loop body: lift regular array loads into
    scalar temporaries, forward stored values to later loads of the same
    element, and eliminate redundant loads of the same element (the reuse
    unroll-and-jam creates between fused copies — the paper's secondary
    benefit of unroll-and-jam over strip-mine-and-interchange, §2.2).

    Only applies to [Direct] references; a body containing an indirect or
    pointer store is left untouched (unknown aliasing). *)

open Memclust_ir
open Ast

val apply_innermost : program -> program * int
(** Apply to every innermost loop body of the program and renumber;
    returns the number of loads eliminated (forwarded or deduplicated).
    Nested loops are processed recursively, each with a fresh value
    map. *)

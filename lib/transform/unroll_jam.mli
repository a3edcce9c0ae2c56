(** Unroll-and-jam (paper §2.2, §3.2): unroll an outer loop by a factor n
    and fuse ("jam") the resulting copies of its inner loops, so that each
    inner-loop iteration carries independent leading references from n
    outer iterations — clustering their misses inside one instruction
    window while preserving the inner loop's spatial locality.

    Copies of the body have their privatizable scalars renamed so they stay
    independent; pointer-chase loops are jammed by advancing the extra
    chains inside the first chain's loop (guarded when chain lengths may
    differ, with postlude chases finishing the leftovers — the paper's MST
    treatment). A postlude covers leftover outer iterations; when the body
    is a perfect nest the postlude is interchanged ({!Interchange.apply})
    so the leftovers still get some clustering (paper §2.2).

    The copies, their renaming, the main loop and the postlude's bounds
    come from {!Inner_unroll.unroll}, the core shared with inner
    unrolling; this module adds the legality checks and the jamming. *)

open Memclust_ir
open Ast

type error =
  | Not_unrollable of string
      (** structural obstacle (e.g. carried scalar, non-positive factor) *)
  | Illegal of string  (** a data dependence forbids the transformation *)

val pp_error : Format.formatter -> error -> unit

val apply :
  ?params:(string * int) list ->
  ?outer_ranges:(string * Legality.var_range) list ->
  stamp:int ->
  factor:int ->
  loop ->
  (stmt list, error) result
(** [apply ~stamp ~factor l] unrolls-and-jams loop [l]. Returns the
    replacement statement sequence: the main loop, then the postlude if
    the factor does not divide the trip count. Copies rename every
    written scalar and chase cursor by {!Subst.copy_name} with tag ['u']
    and [stamp], which the caller keeps unused in the program. [params]
    and [outer_ranges] feed the legality tests; a loop marked [parallel]
    skips the array-dependence test but still requires its written
    scalars to be privatizable. An interchanged postlude's two loops are
    both sequential. The caller must renumber the enclosing program
    afterwards. *)

(** Syntactic substitutions used by the loop transformations. *)

open Memclust_ir
open Ast

val shift_var : string -> int -> stmt -> stmt
(** [shift_var v k s] rewrites [s] so that every occurrence of loop
    variable [v] reads [v + k]: affine subscripts are shifted and run-time
    [Ivar v] uses become [v + k]. Used to build the k-th copy of an
    unrolled body. *)

val rename_var : string -> string -> stmt -> stmt
(** Rename a loop variable everywhere (subscripts, [Ivar], loop headers). *)

val rename_scalars : (string -> string) -> stmt -> stmt
(** Rename scalar variables (reads, writes and chase pointer variables).
    Unrolled body copies rename their locally-written scalars so the
    copies stay independent. *)

val copy_name : tag:char -> stamp:int -> copy:int -> string -> string
(** [copy_name ~tag ~stamp ~copy v] is ["v__<tag><stamp>_<copy>"]: the
    name unroll-and-jam ([tag = 'u']) and inner unrolling (['k']) give
    the [copy]-th copy of a privatized scalar [v]. *)

val name_stamps : string -> int list
(** The stamps {!copy_name} wrote into a name: [[2; 5]] for
    ["s__u2_1__k5_3"], [[]] for a name no copy produced. *)

val subst_var_affine : string -> Affine.t -> stmt -> stmt
(** Replace a loop variable by an affine expression in all subscripts and
    loop bounds. [Ivar] uses are rewritten only when the replacement is a
    plain [variable + constant]; otherwise they are left untouched (the
    caller must ensure no run-time uses exist). *)

(** Combinators for constructing IR programs concisely.

    All references are created with [ref_id = 0]; call {!Program.renumber}
    on the finished program (done automatically by {!program}) to assign
    unique ids before analysis. *)

open Ast

(** {1 Affine index expressions} *)

val ix : string -> Affine.t
(** Loop-index variable. *)

val cst : int -> Affine.t

val ( +: ) : Affine.t -> Affine.t -> Affine.t
val ( -: ) : Affine.t -> Affine.t -> Affine.t
val ( *: ) : int -> Affine.t -> Affine.t

val idx2 : cols:int -> Affine.t -> Affine.t -> Affine.t
(** [idx2 ~cols j i] is the row-major linearization [j*cols + i]. *)

val idx3 : dim2:int -> dim3:int -> Affine.t -> Affine.t -> Affine.t -> Affine.t

(** {1 Value expressions} *)

val flt : float -> expr
val num : int -> expr
val iv : string -> expr
(** Loop index as a run-time value. *)

val sc : string -> expr
(** Scalar variable read. *)

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( %% ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( <= ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr

(** {1 Memory references} *)

val aref : string -> Affine.t -> mem_ref
(** Regular (affine-indexed) reference. *)

val iref : string -> expr -> mem_ref
(** Irregular reference with a computed index. *)

val fref : string -> expr -> int -> mem_ref
(** [fref region ptr field]: load/store of a node field through a pointer. *)

val ld : mem_ref -> expr

val arr : string -> Affine.t -> expr
(** [arr a i] = [ld (aref a i)]. *)

(** {1 Statements} *)

val assign : string -> expr -> stmt
val store : mem_ref -> expr -> stmt

val loop : ?parallel:bool -> ?step:int -> string -> Affine.t -> Affine.t -> stmt list -> stmt

val chase : string -> init:expr -> region:string -> next:int -> ?count:Affine.t -> stmt list -> stmt
val if_ : expr -> stmt list -> stmt list -> stmt
val use : expr -> stmt

val prefetch : mem_ref -> stmt
(** Non-binding prefetch hint. *)

(** {1 Programs} *)

val array_decl : ?elem_size:int -> string -> int -> array_decl
val region_decl : node_size:int -> string -> int -> region_decl

val program :
  ?params:(string * int) list ->
  ?arrays:array_decl list ->
  ?regions:region_decl list ->
  string ->
  stmt list ->
  program
(** Builds and renumbers a program. *)

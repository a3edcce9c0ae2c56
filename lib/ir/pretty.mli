(** Human-readable, C-like rendering of IR programs — used by the examples
    to show code before and after transformation. *)

open Ast

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_program : Format.formatter -> program -> unit

val stmt_to_string : stmt -> string

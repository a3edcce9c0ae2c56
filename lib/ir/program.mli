(** Whole-program utilities: reference renumbering, traversals, lookup of
    declarations, and structural validation. *)

open Ast

val renumber : program -> program
(** Assign fresh, unique, dense [ref_id]s (from 1) to every static memory
    reference, in syntactic order. Analyses key their results by these ids,
    so renumbering must be re-run after any transformation (transformation
    entry points do this themselves). *)

val max_ref_id : program -> int

(** A static reference together with its syntactic context. *)
type ref_info = {
  ref_ : mem_ref;
  is_store : bool;
  loop_path : loop list;  (** enclosing counted loops, outermost first *)
  chase_path : chase list;  (** enclosing pointer-chase loops, outermost first *)
}

val refs : program -> ref_info list
(** All static references in syntactic order. *)

val refs_in_stmts : stmt list -> ref_info list

val chases : program -> chase list
(** All pointer-chase loops, in syntactic order. *)

val find_array : program -> string -> array_decl
(** Raises [Not_found] for unknown arrays. *)

val find_region : program -> string -> region_decl

val validate : program -> (unit, string) result
(** Structural checks: declared arrays/regions, positive steps and sizes,
    unique ref ids, unique loop variables along any nesting path, fields
    within node bounds. *)

val scalars_written : stmt list -> string list
(** Scalar variables assigned anywhere in the statements (no duplicates). *)

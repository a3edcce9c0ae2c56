open Ast

let ix = Affine.var
let cst = Affine.const
let ( +: ) = Affine.add
let ( -: ) = Affine.sub
let ( *: ) = Affine.scale

let idx2 ~cols j i = Affine.add (Affine.scale cols j) i

let idx3 ~dim2 ~dim3 k j i =
  Affine.add (Affine.scale (dim2 * dim3) k) (Affine.add (Affine.scale dim3 j) i)

let flt x = Const (Vfloat x)
let num x = Const (Vint x)
let iv v = Ivar v
let sc v = Scalar v

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( %% ) a b = Binop (Mod, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( = ) a b = Binop (Eq, a, b)

let aref array index = { ref_id = 0; target = Direct { array; index } }
let iref array index = { ref_id = 0; target = Indirect { array; index } }
let fref region ptr field = { ref_id = 0; target = Field { region; ptr; field } }

let ld r = Load r
let arr a i = ld (aref a i)

let assign v e = Assign (Lscalar v, e)
let store r e = Assign (Lmem r, e)

let loop ?(parallel = false) ?(step = 1) var lo hi body =
  Loop { var; lo; hi; step; parallel; body }

let chase cvar ~init ~region ~next ?count cbody =
  Chase
    { cvar; init; cregion = region; next_field = next; next_ref_id = 0; count; cbody }

let if_ cond then_ else_ = If (cond, then_, else_)
let use e = Use e
let prefetch r = Prefetch r

let array_decl ?(elem_size = 8) a_name length = { a_name; elem_size; length }
let region_decl ~node_size r_name node_count = { r_name; node_size; node_count }

let program ?(params = []) ?(arrays = []) ?(regions = []) p_name body =
  Program.renumber { p_name; params; arrays; regions; body }

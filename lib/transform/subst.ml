open Memclust_ir
open Ast

(* Generic expression rewriter that also maps affine subscripts and loop
   bounds. [fe] rewrites leaf expressions ([Ivar]/[Scalar]); [fa] rewrites
   affine forms. *)
let rec rw_expr ~fe ~fa e =
  match e with
  | Const _ -> e
  | Ivar _ | Scalar _ -> fe e
  | Load r -> Load (rw_ref ~fe ~fa r)
  | Unop (op, a) -> Unop (op, rw_expr ~fe ~fa a)
  | Binop (op, a, b) -> Binop (op, rw_expr ~fe ~fa a, rw_expr ~fe ~fa b)

and rw_ref ~fe ~fa r =
  let target =
    match r.target with
    | Direct { array; index } -> Direct { array; index = fa index }
    | Indirect { array; index } -> Indirect { array; index = rw_expr ~fe ~fa index }
    | Field { region; ptr; field } ->
        Field { region; ptr = rw_expr ~fe ~fa ptr; field }
  in
  { r with target }

let rec rw_stmt ~fe ~fa ~floop stmt =
  match stmt with
  | Assign (Lscalar v, e) -> Assign (Lscalar v, rw_expr ~fe ~fa e)
  | Assign (Lmem r, e) -> Assign (Lmem (rw_ref ~fe ~fa r), rw_expr ~fe ~fa e)
  | Use e -> Use (rw_expr ~fe ~fa e)
  | Barrier -> Barrier
  | Prefetch r -> Prefetch (rw_ref ~fe ~fa r)
  | If (c, t, e) ->
      If
        ( rw_expr ~fe ~fa c,
          List.map (rw_stmt ~fe ~fa ~floop) t,
          List.map (rw_stmt ~fe ~fa ~floop) e )
  | Loop l ->
      let l = { l with lo = fa l.lo; hi = fa l.hi } in
      let (l : loop) = floop l in
      Loop { l with body = List.map (rw_stmt ~fe ~fa ~floop) l.body }
  | Chase c ->
      Chase
        {
          c with
          init = rw_expr ~fe ~fa c.init;
          count = Option.map fa c.count;
          cbody = List.map (rw_stmt ~fe ~fa ~floop) c.cbody;
        }

let shift_var v k stmt =
  let fe = function
    | Ivar v' when String.equal v v' -> Binop (Add, Ivar v, Const (Vint k))
    | e -> e
  in
  let fa a = Affine.shift a v k in
  rw_stmt ~fe ~fa ~floop:Fun.id stmt

let rename_var v w stmt =
  let fe = function
    | Ivar v' when String.equal v v' -> Ivar w
    | e -> e
  in
  let fa a = Affine.subst a v (Affine.var w) in
  let floop l = if String.equal l.var v then { l with var = w } else l in
  rw_stmt ~fe ~fa ~floop stmt

let rename_scalars f stmt =
  let fe = function Scalar v -> Scalar (f v) | e -> e in
  let rec go stmt =
    match stmt with
    | Assign (Lscalar v, e) -> Assign (Lscalar (f v), rw_expr ~fe ~fa:Fun.id e)
    | Assign (Lmem r, e) ->
        Assign (Lmem (rw_ref ~fe ~fa:Fun.id r), rw_expr ~fe ~fa:Fun.id e)
    | Use e -> Use (rw_expr ~fe ~fa:Fun.id e)
    | Barrier -> Barrier
    | Prefetch r -> Prefetch (rw_ref ~fe ~fa:Fun.id r)
    | If (c, t, e) -> If (rw_expr ~fe ~fa:Fun.id c, List.map go t, List.map go e)
    | Loop l -> Loop { l with body = List.map go l.body }
    | Chase c ->
        Chase
          {
            c with
            cvar = f c.cvar;
            init = rw_expr ~fe ~fa:Fun.id c.init;
            cbody = List.map go c.cbody;
          }
  in
  go stmt

let copy_name ~tag ~stamp ~copy v = Printf.sprintf "%s__%c%d_%d" v tag stamp copy

(* "s__u2_1__k5_3" splits into s, "", u2, 1, "", k5, 3 *)
let name_stamps v =
  let rec go = function
    | "" :: tag :: (_ :: _ as rest)
      when String.length tag > 1 && (tag.[0] = 'u' || tag.[0] = 'k') -> (
        match int_of_string_opt (String.sub tag 1 (String.length tag - 1)) with
        | Some n -> n :: go rest
        | None -> go rest)
    | _ :: rest -> go rest
    | [] -> []
  in
  go (String.split_on_char '_' v)

let subst_var_affine v repl stmt =
  let fe = function
    | Ivar v' when String.equal v v' ->
        (* run-time use: only expressible when repl = var + const *)
        (match (Affine.vars repl, Affine.constant repl) with
        | [ w ], c when Affine.coeff repl w = 1 ->
            if c = 0 then Ivar w else Binop (Add, Ivar w, Const (Vint c))
        | [], c -> Const (Vint c)
        | _ -> Ivar v')
    | e -> e
  in
  let fa a = Affine.subst a v repl in
  rw_stmt ~fe ~fa ~floop:Fun.id stmt

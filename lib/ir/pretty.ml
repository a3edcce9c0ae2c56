open Ast

let pp_value ppf = function
  | Vfloat x -> Format.fprintf ppf "%g" x
  | Vint i -> Format.fprintf ppf "%d" i
  | Vptr 0 -> Format.fprintf ppf "null"
  | Vptr a -> Format.fprintf ppf "ptr:%#x" a

let unop_name = function
  | Neg -> "-"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Trunc -> "trunc"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "=="

let rec pp_expr ppf = function
  | Const v -> pp_value ppf v
  | Ivar v -> Format.fprintf ppf "%s" v
  | Scalar v -> Format.fprintf ppf "%s" v
  | Load r -> pp_target ppf r.target
  | Unop (Neg, e) -> Format.fprintf ppf "(-%a)" pp_expr e
  | Unop (op, e) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp_expr e
  | Binop ((Min | Max) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_name op) pp_expr a pp_expr b
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b

and pp_target ppf = function
  | Direct { array; index } -> Format.fprintf ppf "%s[%a]" array Affine.pp index
  | Indirect { array; index } -> Format.fprintf ppf "%s[%a]" array pp_expr index
  | Field { region = _; ptr; field } ->
      Format.fprintf ppf "%a->f%d" pp_expr ptr field

let pp_lhs ppf = function
  | Lscalar v -> Format.fprintf ppf "%s" v
  | Lmem r -> pp_target ppf r.target

let rec pp_stmt ppf stmt =
  match stmt with
  | Assign (lhs, e) -> Format.fprintf ppf "@[<h>%a = %a;@]" pp_lhs lhs pp_expr e
  | Use e -> Format.fprintf ppf "@[<h>use(%a);@]" pp_expr e
  | Barrier -> Format.fprintf ppf "barrier;"
  | Prefetch r -> Format.fprintf ppf "@[<h>prefetch(%a);@]" pp_target r.target
  | Loop l ->
      Format.fprintf ppf "@[<v 2>%sfor (%s = %a; %s < %a; %s += %d) {@,%a@]@,}"
        (if l.parallel then "parallel " else "")
        l.var Affine.pp l.lo l.var Affine.pp l.hi l.var l.step pp_body l.body
  | Chase c ->
      let bound ppf = function
        | Some k -> Format.fprintf ppf "; %a times" Affine.pp k
        | None -> ()
      in
      Format.fprintf ppf "@[<v 2>for (%s = %a; %s != null; %s = %s->f%d%a) {@,%a@]@,}"
        c.cvar pp_expr c.init c.cvar c.cvar c.cvar c.next_field bound c.count
        pp_body c.cbody
  | If (cond, t, []) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}" pp_expr cond pp_body t
  | If (cond, t, e) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}" pp_expr
        cond pp_body t pp_body e

and pp_body ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf stmts

let pp_program ppf p =
  Format.fprintf ppf "@[<v>program %s" p.p_name;
  List.iter
    (fun a ->
      Format.fprintf ppf "@,array %s[%d] (%dB elems)" a.a_name a.length a.elem_size)
    p.arrays;
  List.iter
    (fun r ->
      Format.fprintf ppf "@,region %s: %d nodes of %dB" r.r_name r.node_count
        r.node_size)
    p.regions;
  Format.fprintf ppf "@,%a@]" pp_body p.body

let stmt_to_string s = Format.asprintf "%a" pp_stmt s

open Memclust_ir
open Ast

(* Available-value map: (array, subscript) -> scalar holding the value. *)
module Key = struct
  type t = string * Affine.t

  let equal (a1, i1) (a2, i2) = String.equal a1 a2 && Affine.equal i1 i2
end

type env = {
  mutable avail : (Key.t * string) list;
  fresh : int ref;  (* shared across nested blocks: names never collide *)
  mutable out : stmt list;  (* reversed output statements *)
  saved : int ref;
}

let lookup env k = List.find_opt (fun (k', _) -> Key.equal k k') env.avail

let invalidate_array env a =
  env.avail <- List.filter (fun ((a', _), _) -> not (String.equal a a')) env.avail

let define env k name =
  env.avail <- (k, name) :: List.filter (fun (k', _) -> not (Key.equal k k')) env.avail

let fresh_name env =
  incr env.fresh;
  Printf.sprintf "sr$%d" !(env.fresh)

let has_irregular_store stmts =
  List.exists
    (fun (ri : Program.ref_info) ->
      ri.is_store
      && match ri.ref_.target with Direct _ -> false | Indirect _ | Field _ -> true)
    (Program.refs_in_stmts stmts)

(* Rewrite an expression, lifting Direct loads to temporaries. *)
let rec rw_expr env e =
  match e with
  | Const _ | Ivar _ | Scalar _ -> e
  | Load ({ target = Direct { array; index }; _ } as r) -> (
      let k = (array, index) in
      match lookup env k with
      | Some (_, name) ->
          incr env.saved;
          Scalar name
      | None ->
          let name = fresh_name env in
          env.out <- Assign (Lscalar name, Load r) :: env.out;
          define env k name;
          Scalar name)
  | Load { target = Indirect { array; index }; ref_id } ->
      (* irregular loads cannot be value-numbered (unknown aliasing), but
         lifting them to a temporary exposes them to the miss-packing
         scheduler *)
      let index' = rw_expr env index in
      let name = fresh_name env in
      env.out <-
        Assign (Lscalar name, Load { ref_id; target = Indirect { array; index = index' } })
        :: env.out;
      Scalar name
  | Load { target = Field { region; ptr; field }; ref_id } ->
      Load { ref_id; target = Field { region; ptr = rw_expr env ptr; field } }
  | Unop (op, a) -> Unop (op, rw_expr env a)
  | Binop (op, a, b) ->
      let a' = rw_expr env a in
      let b' = rw_expr env b in
      Binop (op, a', b')

let rec rw_stmt env stmt =
  match stmt with
  | Assign (Lscalar v, e) ->
      let e' = rw_expr env e in
      env.out <- Assign (Lscalar v, e') :: env.out
  | Assign (Lmem ({ target = Direct { array; index }; _ } as r), e) ->
      let e' = rw_expr env e in
      let k = (array, index) in
      let name =
        match e' with
        | Scalar v -> v
        | _ ->
            let name = fresh_name env in
            env.out <- Assign (Lscalar name, e') :: env.out;
            name
      in
      invalidate_array env array;
      define env k name;
      env.out <- Assign (Lmem r, Scalar name) :: env.out
  | Assign (Lmem r, e) ->
      let e' = rw_expr env e in
      (* unknown aliasing: drop everything *)
      env.avail <- [];
      env.out <- Assign (Lmem r, e') :: env.out
  | Use e ->
      let e' = rw_expr env e in
      env.out <- Use e' :: env.out
  | Barrier ->
      env.avail <- [];
      env.out <- Barrier :: env.out
  | Prefetch r -> env.out <- Prefetch r :: env.out
  | If (c, t, e) ->
      let c' = rw_expr env c in
      let t' = sub_block env t in
      let e' = sub_block env e in
      (* conservatively forget values after a branch *)
      env.avail <- [];
      env.out <- If (c', t', e') :: env.out
  | Loop l ->
      let body' = sub_block env l.body in
      env.avail <- [];
      env.out <- Loop { l with body = body' } :: env.out
  | Chase c ->
      let body' = sub_block env c.cbody in
      env.avail <- [];
      env.out <- Chase { c with cbody = body' } :: env.out

(* a nested block starts with no available values and keeps its rewrites
   local (it may execute zero or many times) *)
and sub_block env stmts =
  if has_irregular_store stmts then stmts
  else begin
    let child = { avail = []; fresh = env.fresh; out = []; saved = env.saved } in
    List.iter (rw_stmt child) stmts;
    List.rev child.out
  end

(* The rewritten body and the number of loads eliminated. *)
let apply_body stmts =
  if has_irregular_store stmts then (stmts, 0)
  else begin
    let env = { avail = []; fresh = ref 0; out = []; saved = ref 0 } in
    List.iter (rw_stmt env) stmts;
    (List.rev env.out, !(env.saved))
  end

let apply_innermost (p : program) =
  let total = ref 0 in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        let has_nested =
          List.exists (function Loop _ | Chase _ -> true | _ -> false) l.body
        in
        if has_nested then Loop { l with body = List.map walk l.body }
        else begin
          let body', n = apply_body l.body in
          total := !total + n;
          Loop { l with body = body' }
        end
    | Chase c -> Chase { c with cbody = List.map walk c.cbody }
    | If (c, t, e) -> If (c, List.map walk t, List.map walk e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  let p' = { p with body = List.map walk p.body } in
  (Program.renumber p', !total)

open Memclust_ir
open Memclust_locality
open Ast

let distance_for ~latency ~issue_width body =
  let ops = Measure.body_ops body in
  let cycles = max 1 (ops / max 1 issue_width) in
  max 1 ((latency + cycles - 1) / cycles)

(* Shift every use of [var] in an expression by [k] iterations (the
   run-time Ivar form; affine subscripts go through Affine.shift). *)
let rec shift_expr var k e =
  match e with
  | Const _ | Scalar _ -> e
  | Ivar v when String.equal v var -> Binop (Add, Ivar v, Const (Vint k))
  | Ivar _ -> e
  | Load r -> Load (shift_ref var k r)
  | Unop (op, a) -> Unop (op, shift_expr var k a)
  | Binop (op, a, b) -> Binop (op, shift_expr var k a, shift_expr var k b)

and shift_ref var k r =
  match r.target with
  | Direct { array; index } ->
      { ref_id = 0; target = Direct { array; index = Affine.shift index var k } }
  | Indirect { array; index } ->
      { ref_id = 0; target = Indirect { array; index = shift_expr var k index } }
  | Field _ -> { r with ref_id = 0 }

(* The per-loop worker: the new body and the number of prefetches added. *)
let insert_in_body loc ~distance (l : loop) =
  let added = ref 0 in
  let hints =
    List.filter_map
      (fun (ri : Program.ref_info) ->
        if ri.loop_path <> [] || ri.chase_path <> [] then None
        else
          match Locality.info loc ri.ref_.ref_id with
          | exception Not_found -> None
          | info -> (
              match (info.Locality.kind, ri.ref_.target) with
              | (Locality.Leading_regular _ | Locality.Leading_irregular), Field _
                ->
                  None (* pointer dereference: address not computable ahead *)
              | ( (Locality.Leading_regular _ | Locality.Leading_irregular),
                  (Direct _ | Indirect _) ) ->
                  incr added;
                  Some (Prefetch (shift_ref l.var (distance * l.step) ri.ref_))
              | (Locality.Follower _ | Locality.Inner_invariant), _ -> None))
      (Program.refs_in_stmts l.body)
  in
  (hints @ l.body, !added)

let insert ?(latency = 85) ?(issue_width = 4) ?(line_size = 64) (p : program) =
  let loc = Locality.analyze ~line_size p in
  let total = ref 0 in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        let has_nested =
          List.exists (function Loop _ | Chase _ -> true | _ -> false) l.body
        in
        if has_nested then Loop { l with body = List.map walk l.body }
        else begin
          let distance = distance_for ~latency ~issue_width l.body in
          let body, n = insert_in_body loc ~distance l in
          total := !total + n;
          Loop { l with body }
        end
    | Chase c -> Chase { c with cbody = List.map walk c.cbody }
    | If (c, t, e) -> If (c, List.map walk t, List.map walk e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  let p' = { p with body = List.map walk p.body } in
  (Program.renumber p', !total)

open Memclust_ir
open Memclust_locality
open Memclust_depgraph

type t = {
  f : float;
  f_reg : float;
  f_irreg : float;
  body_ops : int;
  misses_per_iteration : float;
  regular_leading : int;
  irregular_leading : int;
}

(* Reference ids that belong directly to this innermost loop (not to a
   nested loop-like construct). *)
let scope_ids inner =
  match inner with
  | Depgraph.Counted l ->
      List.filter_map
        (fun (ri : Program.ref_info) ->
          if ri.loop_path = [] && ri.chase_path = [] then Some ri.ref_.ref_id
          else None)
        (Program.refs_in_stmts l.body)
  | Depgraph.Chased c ->
      c.next_ref_id
      :: List.filter_map
           (fun (ri : Program.ref_info) ->
             if ri.loop_path = [] && ri.chase_path = [] then Some ri.ref_.ref_id
             else None)
           (Program.refs_in_stmts c.cbody)

let body_size inner =
  match inner with
  | Depgraph.Counted l -> Measure.body_ops l.body
  | Depgraph.Chased c -> Measure.body_ops c.cbody + 1

(* The kinds of the references in this construct's scope — the only
   references Eq. 1–3 read. *)
let scope_kinds loc inner =
  List.filter_map
    (fun id ->
      match Locality.info loc id with
      | exception Not_found -> None
      | info -> Some (id, info.Locality.kind))
    (scope_ids inner)

let reads_pm loc inner =
  List.exists
    (function _, Locality.Leading_irregular -> true | _ -> false)
    (scope_kinds loc inner)

let compute (m : Machine_model.t) loc ~pm ~graph inner =
  let i = max 1 (body_size inner) in
  let w = m.Machine_model.window in
  let has_addr = graph.Depgraph.has_address_recurrence in
  let cm lm =
    if has_addr then 1
    else max 1 ((w + (i * lm) - 1) / (i * lm))
  in
  let f_reg = ref 0.0 in
  let f_irreg_sum = ref 0.0 in
  let n_reg = ref 0 in
  let n_irreg = ref 0 in
  let density = ref 0.0 in
  List.iter
    (fun (id, kind) ->
      match kind with
      | Locality.Leading_regular { lm; _ } ->
          incr n_reg;
          f_reg := !f_reg +. float_of_int (cm lm);
          density := !density +. (1.0 /. float_of_int lm)
      | Locality.Leading_irregular ->
          incr n_irreg;
          let p = pm id in
          f_irreg_sum := !f_irreg_sum +. (p *. float_of_int (cm 1));
          density := !density +. p
      | Locality.Follower _ | Locality.Inner_invariant -> ())
    (scope_kinds loc inner);
  let f_irreg = if !n_irreg = 0 then 0.0 else Float.ceil !f_irreg_sum in
  {
    f = !f_reg +. f_irreg;
    f_reg = !f_reg;
    f_irreg;
    body_ops = i;
    misses_per_iteration = !density;
    regular_leading = !n_reg;
    irregular_leading = !n_irreg;
  }

let pp ppf t =
  Format.fprintf ppf
    "f=%.2f (reg %.2f over %d refs, irreg %.2f over %d refs) i=%d density=%.3f"
    t.f t.f_reg t.regular_leading t.f_irreg t.irregular_leading t.body_ops
    t.misses_per_iteration

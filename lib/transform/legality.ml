open Memclust_ir
open Ast

type var_range = { r_lo : int; r_hi : int }

let wide = { r_lo = -1_000_000_000; r_hi = 1_000_000_000 }

(* ---------------- interval arithmetic over affine forms -------------- *)

let range_of_affine ranges a =
  let lo = ref (Affine.constant a) and hi = ref (Affine.constant a) in
  List.iter
    (fun v ->
      let c = Affine.coeff a v in
      let { r_lo; r_hi } =
        match List.assoc_opt v ranges with Some r -> r | None -> wide
      in
      if c >= 0 then begin
        lo := !lo + (c * r_lo);
        hi := !hi + (c * r_hi)
      end
      else begin
        lo := !lo + (c * r_hi);
        hi := !hi + (c * r_lo)
      end)
    (Affine.vars a);
  { r_lo = !lo; r_hi = !hi }

let ranges_of_nest_env ~env nest =
  let ranges, _ =
    List.fold_left
      (fun (acc, env) (l : loop) ->
        let lo = range_of_affine env l.lo in
        let hi = range_of_affine env l.hi in
        (* iteration space is lo..hi-1 *)
        let r = { r_lo = lo.r_lo; r_hi = max lo.r_lo (hi.r_hi - 1) } in
        (acc @ [ (l.var, r) ], (l.var, r) :: env))
      ([], env) nest
  in
  ranges

let ranges_of_nest ~params nest =
  let env = List.map (fun (v, k) -> (v, { r_lo = k; r_hi = k })) params in
  ranges_of_nest_env ~env nest

let trip ~params (l : loop) =
  let env v =
    match List.assoc_opt v params with Some k -> k | None -> raise Exit
  in
  match (Affine.eval env l.lo, Affine.eval env l.hi) with
  | lo, hi -> Some (lo, if hi > lo then (hi - lo + l.step - 1) / l.step else 0)
  | exception Exit -> None

(* ---------------- dependence equation -------------------------------- *)

type equation = { terms : (string * int * var_range) list; const : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Can [terms + const = 0] have an integer solution inside the boxes?
   GCD test first, then a Banerjee-style interval test. *)
let solvable eq =
  let g = List.fold_left (fun acc (_, c, _) -> gcd acc c) 0 eq.terms in
  let gcd_ok = if g = 0 then eq.const = 0 else eq.const mod g = 0 in
  gcd_ok
  &&
  let lo = ref eq.const and hi = ref eq.const in
  List.iter
    (fun (_, c, { r_lo; r_hi }) ->
      if c >= 0 then begin
        lo := !lo + (c * r_lo);
        hi := !hi + (c * r_hi)
      end
      else begin
        lo := !lo + (c * r_hi);
        hi := !hi + (c * r_lo)
      end)
    eq.terms;
  !lo <= 0 && 0 <= !hi

(* Dependence equation [idx_a(it) - idx_b(it') = 0] where:
   - [shared] variables take equal values on both sides;
   - the [target] variable satisfies it' = it + d;
   - every other variable is an independent instance per side. *)
let equation ~ranges ~shared ~target ~d idx_a idx_b =
  let range_of v =
    match List.assoc_opt v ranges with Some r -> r | None -> wide
  in
  let terms = Hashtbl.create 8 in
  let const = ref (Affine.constant idx_a - Affine.constant idx_b) in
  let add name c range =
    if c <> 0 then
      match Hashtbl.find_opt terms name with
      | Some (c', r) ->
          ignore r;
          Hashtbl.replace terms name (c + c', range)
      | None -> Hashtbl.add terms name (c, range)
  in
  List.iter
    (fun v ->
      let c = Affine.coeff idx_a v in
      let name =
        if List.mem v shared || String.equal v target then v else v ^ "$a"
      in
      add name c (range_of v))
    (Affine.vars idx_a);
  List.iter
    (fun v ->
      let c = -(Affine.coeff idx_b v) in
      if String.equal v target then begin
        add v c (range_of v);
        const := !const + (c * d)
      end
      else begin
        let name = if List.mem v shared then v else v ^ "$b" in
        add name c (range_of v)
      end)
    (Affine.vars idx_b);
  let terms =
    Hashtbl.fold
      (fun name (c, r) acc -> if c = 0 then acc else (name, c, r) :: acc)
      terms []
  in
  { terms; const = !const }

(* ---------------- reference collection ------------------------------- *)

type site = { s_array : string; s_index : Affine.t; s_store : bool }

(* (regular sites, any irregular store present) *)
let collect_sites stmts =
  let sites = ref [] in
  let irr_store = ref false in
  List.iter
    (fun (ri : Program.ref_info) ->
      match ri.ref_.target with
      | Direct { array; index } ->
          sites := { s_array = array; s_index = index; s_store = ri.is_store } :: !sites
      | Indirect _ | Field _ -> if ri.is_store then irr_store := true)
    (Program.refs_in_stmts stmts);
  (List.rev !sites, !irr_store)

let inner_loops_of stmts =
  let acc = ref [] in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        acc := !acc @ [ l ];
        List.iter walk l.body
    | Chase c -> List.iter walk c.cbody
    | If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
    | Assign _ | Use _ | Barrier | Prefetch _ -> ()
  in
  List.iter walk stmts;
  !acc

(* ---------------- public tests --------------------------------------- *)

let unroll_jam_legal ~params ~outer_ranges ~target ~factor =
  target.parallel
  ||
  let env =
    List.map (fun (v, k) -> (v, { r_lo = k; r_hi = k })) params @ outer_ranges
  in
  let ranges =
    outer_ranges
    @ ranges_of_nest_env ~env (target :: inner_loops_of target.body)
  in
  let sites, irr_store = collect_sites target.body in
  (not irr_store)
  &&
  let shared = List.map fst outer_ranges in
  let pair_independent a b =
    (not (String.equal a.s_array b.s_array))
    || ((not a.s_store) && not b.s_store)
    ||
    let dep = ref false in
    for d = 1 to factor - 1 do
      let eq = equation ~ranges ~shared ~target:target.var ~d a.s_index b.s_index in
      if solvable eq then dep := true
    done;
    not !dep
  in
  List.for_all (fun a -> List.for_all (pair_independent a) sites) sites

let interchange_legal ~params ~outer_ranges ~outer ~inner =
  outer.parallel
  ||
  let env =
    List.map (fun (v, k) -> (v, { r_lo = k; r_hi = k })) params @ outer_ranges
  in
  let ranges = outer_ranges @ ranges_of_nest_env ~env [ outer; inner ] in
  let sites, irr_store = collect_sites inner.body in
  (not irr_store)
  &&
  (* a dependence with direction (< on outer, > on inner) blocks the
     interchange; enumerate small distances with all variables shared once
     the distances are folded into the subscript *)
  let shared = List.map fst ranges in
  let bound = 6 in
  let bad = ref false in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if String.equal a.s_array b.s_array && (a.s_store || b.s_store) then
            for dj = 1 to bound do
              for di = -bound to -1 do
                let idx_b' =
                  Affine.shift (Affine.shift b.s_index outer.var dj) inner.var di
                in
                let eq =
                  equation ~ranges ~shared ~target:"$none" ~d:0 a.s_index idx_b'
                in
                if solvable eq then bad := true
              done
            done)
        sites)
    sites;
  not !bad

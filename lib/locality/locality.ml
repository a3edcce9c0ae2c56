open Memclust_ir
open Ast

type ref_kind =
  | Leading_regular of { lm : int; self_spatial : bool }
  | Leading_irregular
  | Follower of { leader : int; distance : int }
  | Inner_invariant

type info = {
  id : int;
  kind : ref_kind;
  is_store : bool;
  array : string option;
  inner_var : string option;
  in_chase : bool;
  stride_bytes : int;
}

type t = (int, info) Hashtbl.t

let info t id =
  match Hashtbl.find_opt t id with Some i -> i | None -> raise Not_found

let infos t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let leading t =
  List.filter
    (fun i ->
      match i.kind with
      | Leading_regular _ | Leading_irregular -> true
      | Follower _ | Inner_invariant -> false)
    (infos t)

(* --------------------------------------------------------------- *)

let loop_key (path : loop list) = String.concat ">" (List.map (fun l -> l.var) path)

(* Regular (Direct) references: group same-array references in the same
   innermost loop whose subscripts differ by a constant and share a stride.
   The group leader is the reference that touches new cache lines first
   (largest offset for a positive stride); everyone else's data is brought
   in by the leader's misses. *)

type direct_entry = {
  de_id : int;
  de_store : bool;
  de_array : string;
  de_index : Affine.t;
  de_stride_elems : int;  (* per inner-loop iteration, in elements *)
  de_elem : int;
  de_inner : string option;
  de_loops : loop list;  (* enclosing counted loops, outermost first *)
}

(* Upper bound on a loop's trip count: bounds are evaluated by interval
   arithmetic over the enclosing loops' own bound intervals (seeded with
   the program parameters), so triangular loops like [kk+1 .. kk+B] still
   get a tight bound of B-1 rather than "unknown". *)
let trip_of params (path : loop list) (l : loop) =
  let ranges = Hashtbl.create 8 in
  List.iter (fun (v, k) -> Hashtbl.replace ranges v (k, k)) params;
  let eval_range a =
    List.fold_left
      (fun (lo, hi) v ->
        let c = Affine.coeff a v in
        match Hashtbl.find_opt ranges v with
        | Some (vlo, vhi) ->
            if c >= 0 then (lo + (c * vlo), hi + (c * vhi))
            else (lo + (c * vhi), hi + (c * vlo))
        | None -> (lo - 100_000_000, hi + 100_000_000))
      (Affine.constant a, Affine.constant a)
      (Affine.vars a)
  in
  List.iter
    (fun (outer : loop) ->
      let llo, _ = eval_range outer.lo in
      let _, hhi = eval_range outer.hi in
      Hashtbl.replace ranges outer.var (llo, Int.max llo (hhi - 1)))
    path;
  let llo, _ = eval_range l.lo in
  let _, hhi = eval_range l.hi in
  Int.max 1 ((hhi - llo + l.step - 1) / l.step)

(* Does a reference at constant offset [delta] elements *behind* a group
   leader reuse the leader's cache lines?  Three ways (paper's group
   locality, made iteration-range aware):
   - same line outright (|delta| smaller than a line);
   - exact-address reuse within the innermost loop's extent;
   - reuse carried by up to [outer_cap] iterations of an enclosing loop
     (stencil rows), in which case the data is already cached (dist 0). *)
let reuse_distance ~stride ~elem ~trip ~outer_coeffs ~line_size delta =
  let line_elems = Int.max 1 (line_size / elem) in
  let stride = if stride = 0 then 1 else stride in
  let try_rem rem =
    if abs rem < line_elems then Some (abs rem / abs stride)
    else if rem mod stride = 0 && abs (rem / stride) < trip then
      Some (abs (rem / stride))
    else None
  in
  match try_rem delta with
  | Some d -> Some d
  | None ->
      let outer_cap = 8 in
      let found = ref None in
      List.iter
        (fun c ->
          if !found = None && c <> 0 then
            for d_out = 1 to outer_cap do
              if !found = None then
                match try_rem (delta - (d_out * c)) with
                | Some _ -> found := Some 0
                | None -> ()
            done)
        outer_coeffs;
      !found

let analyze ~line_size (p : program) : t =
  let out : t = Hashtbl.create 64 in
  let put i = Hashtbl.replace out i.id i in
  let refs = Program.refs p in
  (* --- regular references, bucketed by innermost loop --- *)
  let buckets : (string, direct_entry list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ri : Program.ref_info) ->
      match ri.ref_.target with
      | Direct { array; index } when ri.chase_path = [] ->
          let inner = match List.rev ri.loop_path with [] -> None | l :: _ -> Some l in
          let decl = Program.find_array p array in
          let stride_elems =
            match inner with
            | None -> 0
            | Some l -> Affine.coeff index l.var * l.step
          in
          let e =
            {
              de_id = ri.ref_.ref_id;
              de_store = ri.is_store;
              de_array = array;
              de_index = index;
              de_stride_elems = stride_elems;
              de_elem = decl.elem_size;
              de_inner = Option.map (fun (l : loop) -> l.var) inner;
              de_loops = ri.loop_path;
            }
          in
          let key = loop_key ri.loop_path in
          (match Hashtbl.find_opt buckets key with
          | Some cell -> cell := e :: !cell
          | None -> Hashtbl.add buckets key (ref [ e ]))
      | Direct { array; index = _ } ->
          (* regular reference inside a pointer-chase body: its address is
             fixed while the chase runs *)
          put
            {
              id = ri.ref_.ref_id;
              kind = Inner_invariant;
              is_store = ri.is_store;
              array = Some array;
              inner_var = None;
              in_chase = true;
              stride_bytes = 0;
            }
      | Indirect { array; _ } ->
          put
            {
              id = ri.ref_.ref_id;
              kind = Leading_irregular;
              is_store = ri.is_store;
              array = Some array;
              inner_var =
                (match List.rev ri.loop_path with
                | [] -> None
                | l :: _ -> Some l.var);
              in_chase = ri.chase_path <> [];
              stride_bytes = 0;
            }
      | Field _ ->
          (* classified below, together with its chase loop when inside
             one; otherwise irregular *)
          ())
    refs;
  (* classify each bucket of regular references *)
  Hashtbl.iter
    (fun _key cell ->
      let entries = List.rev !cell in
      (* group by (array, subscript shape without constant, stride) *)
      let tbl : (string, direct_entry list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let shape =
            Affine.sub e.de_index (Affine.const (Affine.constant e.de_index))
          in
          let key =
            Printf.sprintf "%s|%s|%d" e.de_array (Affine.to_string shape)
              e.de_stride_elems
          in
          match Hashtbl.find_opt tbl key with
          | Some c -> c := e :: !c
          | None -> Hashtbl.add tbl key (ref [ e ]))
        entries;
      Hashtbl.iter
        (fun _ gcell ->
          let group = List.rev !gcell in
          match group with
          | [] -> ()
          | first :: _ ->
              let stride = first.de_stride_elems in
              let elem = first.de_elem in
              let stride_bytes = stride * elem in
              if stride = 0 then
                List.iter
                  (fun e ->
                    put
                      {
                        id = e.de_id;
                        kind = Inner_invariant;
                        is_store = e.de_store;
                        array = Some e.de_array;
                        inner_var = e.de_inner;
                        in_chase = false;
                        stride_bytes = 0;
                      })
                  group
              else begin
                let offset e = Affine.constant e.de_index in
                (* earliest toucher of any given line first *)
                let sorted =
                  List.sort
                    (fun a b ->
                      if stride > 0 then Int.compare (offset b) (offset a)
                      else Int.compare (offset a) (offset b))
                    group
                in
                let trip =
                  match List.rev first.de_loops with
                  | [] -> 1
                  | l :: outers_rev -> trip_of p.params (List.rev outers_rev) l
                in
                let outer_coeffs =
                  match List.rev first.de_loops with
                  | [] -> []
                  | _ :: outers ->
                      List.filter_map
                        (fun (l : loop) ->
                          let c = Affine.coeff first.de_index l.var * l.step in
                          if c = 0 then None else Some c)
                        outers
                in
                let abs_sb = abs stride_bytes in
                let lm = Int.max 1 (line_size / abs_sb) in
                let self_spatial = abs_sb < line_size in
                let leaders = ref [] in
                List.iter
                  (fun e ->
                    let attach =
                      List.find_map
                        (fun ldr ->
                          match
                            reuse_distance ~stride ~elem ~trip ~outer_coeffs
                              ~line_size
                              (offset ldr - offset e)
                          with
                          | Some d -> Some (ldr, d)
                          | None -> None)
                        !leaders
                    in
                    match attach with
                    | Some (ldr, distance) ->
                        put
                          {
                            id = e.de_id;
                            kind = Follower { leader = ldr.de_id; distance };
                            is_store = e.de_store;
                            array = Some e.de_array;
                            inner_var = e.de_inner;
                            in_chase = false;
                            stride_bytes;
                          }
                    | None ->
                        leaders := !leaders @ [ e ];
                        put
                          {
                            id = e.de_id;
                            kind = Leading_regular { lm; self_spatial };
                            is_store = e.de_store;
                            array = Some e.de_array;
                            inner_var = e.de_inner;
                            in_chase = false;
                            stride_bytes;
                          })
                  sorted
              end)
        tbl)
    buckets;
  (* --- pointer-chase loops --- *)
  let chases = Program.chases p in
  List.iter
    (fun (c : chase) ->
      let line_of_field f = f * 8 / line_size in
      let next_line = line_of_field c.next_field in
      (* field references on the chased node, in body order *)
      let body_refs = Program.refs_in_stmts c.cbody in
      let on_node (ri : Program.ref_info) =
        match ri.ref_.target with
        | Field { region = r; ptr = Scalar v; field }
          when String.equal r c.cregion && String.equal v c.cvar ->
            Some field
        | _ -> None
      in
      (* leader per node line: syntactically first field reference; the
         implicit next load joins the group of its line *)
      let line_leader : (int, int) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun ri ->
          match on_node ri with
          | None -> (
              (* a field ref through some other pointer: irregular *)
              match ri.ref_.target with
              | Field _ ->
                  put
                    {
                      id = ri.ref_.ref_id;
                      kind = Leading_irregular;
                      is_store = ri.is_store;
                      array = None;
                      inner_var = None;
                      in_chase = true;
                      stride_bytes = 0;
                    }
              | Direct _ | Indirect _ -> ())
          | Some field ->
              let ln = line_of_field field in
              (match Hashtbl.find_opt line_leader ln with
              | None ->
                  Hashtbl.add line_leader ln ri.ref_.ref_id;
                  put
                    {
                      id = ri.ref_.ref_id;
                      kind = Leading_irregular;
                      is_store = ri.is_store;
                      array = None;
                      inner_var = None;
                      in_chase = true;
                      stride_bytes = 0;
                    }
              | Some leader ->
                  put
                    {
                      id = ri.ref_.ref_id;
                      kind = Follower { leader; distance = 0 };
                      is_store = ri.is_store;
                      array = None;
                      inner_var = None;
                      in_chase = true;
                      stride_bytes = 0;
                    }))
        body_refs;
      (* the implicit next load *)
      (match Hashtbl.find_opt line_leader next_line with
      | Some leader ->
          put
            {
              id = c.next_ref_id;
              kind = Follower { leader; distance = 0 };
              is_store = false;
              array = None;
              inner_var = None;
              in_chase = true;
              stride_bytes = 0;
            }
      | None ->
          put
            {
              id = c.next_ref_id;
              kind = Leading_irregular;
              is_store = false;
              array = None;
              inner_var = None;
              in_chase = true;
              stride_bytes = 0;
            }))
    chases;
  (* field refs outside any chase: irregular *)
  List.iter
    (fun (ri : Program.ref_info) ->
      match ri.ref_.target with
      | Field _ when not (Hashtbl.mem out ri.ref_.ref_id) ->
          put
            {
              id = ri.ref_.ref_id;
              kind = Leading_irregular;
              is_store = ri.is_store;
              array = None;
              inner_var =
                (match List.rev ri.loop_path with
                | [] -> None
                | l :: _ -> Some l.var);
              in_chase = ri.chase_path <> [];
              stride_bytes = 0;
            }
      | _ -> ())
    refs;
  out

let kind_to_string = function
  | Leading_regular { lm; self_spatial } ->
      Printf.sprintf "leading-regular (Lm=%d%s)" lm
        (if self_spatial then ", self-spatial" else "")
  | Leading_irregular -> "leading-irregular"
  | Follower { leader; distance } ->
      Printf.sprintf "follower of #%d (dist %d)" leader distance
  | Inner_invariant -> "inner-invariant"

let pp ppf t =
  List.iter
    (fun i ->
      Format.fprintf ppf "#%d %s%s %s@." i.id
        (match i.array with Some a -> a | None -> "<region>")
        (if i.is_store then " (store)" else "")
        (kind_to_string i.kind))
    (infos t)

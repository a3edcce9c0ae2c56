open Memclust_ir
open Memclust_locality
open Ast

type dep_class = Cache_line | Address

type edge = { src : int; dst : int; cls : dep_class; distance : int }

type recurrence = {
  rec_nodes : int list;
  rec_class : dep_class;
  r_count : int;
  iota : int;
  alpha : float;
}

type inner = Counted of Ast.loop | Chased of Ast.chase

type t = {
  edges : edge list;
  recurrences : recurrence list;
  has_address_recurrence : bool;
}

let max_dist = 9

(* --------------------------------------------------------------- *)
(* Scalar dataflow: which loads feed each scalar's current value    *)
(* --------------------------------------------------------------- *)

(* [List.assoc_opt], [List.remove_assoc] and [List.mem] with a
   monomorphic equality, in the same order: the polymorphic ones make a
   C call per element *)
let rec assoc_by eq k = function
  | [] -> None
  | (k', v) :: rest -> if eq k k' then Some v else assoc_by eq k rest

let rec remove_by eq k = function
  | [] -> []
  | ((k', _) as b) :: rest -> if eq k k' then rest else b :: remove_by eq k rest

let mem_int id l = List.exists (Int.equal id) l

(* dependence sets: (ref_id, inner-loop distance), deduplicated by id
   keeping the minimum distance *)
let merge a b =
  List.fold_left
    (fun acc (id, (d : int)) ->
      match assoc_by Int.equal id acc with
      | Some d' when d' <= d -> acc
      | _ -> (id, d) :: remove_by Int.equal id acc)
    a b

let shift k set = List.map (fun (id, d) -> (id, Int.min max_dist (d + k))) set

module Names = Set.Make (String)

type walker = {
  loc : Locality.t;
  mutable scalars : (string * (int * int) list) list;  (* current defs *)
  carried : (string, (int * int) list) Hashtbl.t;  (* end-of-iteration defs *)
  mutable edges : edge list;
  mutable in_scope : int list;  (* ref ids seen in this body *)
  emit : bool;
}

let scalar_deps w v =
  match assoc_by String.equal v w.scalars with
  | Some set -> set
  | None -> (
      (* not yet defined this iteration: value carried from the previous
         iteration (or loop-invariant from outside — then it has no deps
         recorded and we correctly return []) *)
      match Hashtbl.find_opt w.carried v with
      | Some set -> shift 1 set
      | None -> [])

let add_edge w ~src ~dst ~cls ~distance =
  if w.emit then w.edges <- { src; dst; cls; distance } :: w.edges

let note_ref w id = if not (mem_int id w.in_scope) then w.in_scope <- id :: w.in_scope

let rec expr_deps w e =
  match e with
  | Const _ | Ivar _ -> []
  | Scalar v -> scalar_deps w v
  | Load r ->
      visit_ref w r;
      [ (r.ref_id, 0) ]
  | Unop (_, a) -> expr_deps w a
  | Binop (_, a, b) -> merge (expr_deps w a) (expr_deps w b)

and visit_ref w r =
  note_ref w r.ref_id;
  let addr_deps =
    match r.target with
    | Direct _ -> []
    | Indirect { index; _ } -> expr_deps w index
    | Field { ptr; _ } -> expr_deps w ptr
  in
  List.iter
    (fun (src, distance) ->
      if src <> r.ref_id || distance > 0 then
        add_edge w ~src ~dst:r.ref_id ~cls:Address ~distance)
    addr_deps

let rec walk_stmt w stmt =
  match stmt with
  | Assign (Lscalar v, e) ->
      let deps = expr_deps w e in
      w.scalars <- (v, deps) :: remove_by String.equal v w.scalars
  | Assign (Lmem r, e) ->
      ignore (expr_deps w e);
      visit_ref w r
  | Use e -> ignore (expr_deps w e)
  | Barrier -> ()
  | If (cond, then_, else_) ->
      ignore (expr_deps w cond);
      let saved = w.scalars in
      List.iter (walk_stmt w) then_;
      let after_then = w.scalars in
      w.scalars <- saved;
      List.iter (walk_stmt w) else_;
      let after_else = w.scalars in
      (* conservative union of both branches *)
      let keys =
        Names.elements (Names.of_list (List.map fst after_then @ List.map fst after_else))
      in
      let deps_in branch k = Option.value ~default:[] (assoc_by String.equal k branch) in
      w.scalars <- List.map (fun k -> (k, merge (deps_in after_then k) (deps_in after_else k))) keys
  | Prefetch _ -> () (* hints neither produce values nor serialize misses *)
  | Loop _ | Chase _ ->
      (* nested loop-like constructs are analyzed on their own *)
      ()

(* --------------------------------------------------------------- *)
(* Graph construction                                               *)
(* --------------------------------------------------------------- *)

let run_pass loc inner carried ~emit =
  let w = { loc; scalars = []; carried; edges = []; in_scope = []; emit } in
  (match inner with
  | Counted l -> List.iter (walk_stmt w) l.body
  | Chased c ->
      note_ref w c.next_ref_id;
      w.scalars <- [ (c.cvar, [ (c.next_ref_id, 1) ]) ];
      List.iter (walk_stmt w) c.cbody;
      (* implicit p = p->next at the end of the iteration *)
      let deps = scalar_deps w c.cvar in
      List.iter
        (fun (src, distance) ->
          if src <> c.next_ref_id || distance > 0 then
            add_edge w ~src ~dst:c.next_ref_id ~cls:Address ~distance)
        deps);
  w

let analyze loc inner =
  (* fixpoint on carried scalar definitions (bounded; distances saturate) *)
  let carried = Hashtbl.create 8 in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 5 do
    incr iters;
    changed := false;
    let w = run_pass loc inner carried ~emit:false in
    List.iter
      (fun (v, set) ->
        let old = Option.value ~default:[] (Hashtbl.find_opt carried v) in
        let merged = merge old set in
        if List.length merged <> List.length old then begin
          Hashtbl.replace carried v merged;
          changed := true
        end)
      w.scalars
  done;
  let w = run_pass loc inner carried ~emit:true in
  (* cache-line edges from the locality classification *)
  let scope = w.in_scope in
  let in_scope id = mem_int id scope in
  let edges = ref w.edges in
  List.iter
    (fun id ->
      match Locality.info loc id with
      | exception Not_found -> ()
      | info -> (
          match info.Locality.kind with
          | Locality.Leading_regular { self_spatial = true; _ } ->
              edges := { src = id; dst = id; cls = Cache_line; distance = 1 } :: !edges
          | Locality.Leading_regular _ | Locality.Leading_irregular
          | Locality.Inner_invariant ->
              ()
          | Locality.Follower { leader; distance } ->
              if in_scope leader then
                edges :=
                  { src = leader; dst = id; cls = Cache_line; distance } :: !edges))
    scope;
  (* dedup (src, dst, cls) keeping minimum distance *)
  let table = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (e.src, e.dst, e.cls) in
      match Hashtbl.find_opt table key with
      | Some d when d <= e.distance -> ()
      | _ -> Hashtbl.replace table key e.distance)
    !edges;
  let edges =
    Hashtbl.fold (fun (src, dst, cls) distance acc -> { src; dst; cls; distance } :: acc)
      table []
  in
  (* ---- recurrence detection on the leader-collapsed graph ---- *)
  let rec canon id =
    match Locality.info loc id with
    | exception Not_found -> Some id
    | info -> (
        match info.Locality.kind with
        | Locality.Follower { leader; _ } -> canon leader
        | Locality.Inner_invariant -> None  (* cannot carry a miss recurrence *)
        | Locality.Leading_regular _ | Locality.Leading_irregular -> Some id)
  in
  let cedges =
    List.filter_map
      (fun e ->
        match (canon e.src, canon e.dst) with
        | Some s, Some d ->
            if e.cls = Cache_line && s = d && e.src <> e.dst then None
              (* artifact of collapsing a follower into its leader *)
            else Some { e with src = s; dst = d }
        | _ -> None)
      edges
  in
  let nodes = List.sort_uniq Int.compare
      (List.concat_map (fun e -> [ e.src; e.dst ]) cedges)
  in
  let succ v =
    List.filter_map (fun e -> if e.src = v then Some e.dst else None) cedges
  in
  let sccs = Scc.compute ~nodes ~succ in
  let is_leading id =
    match Locality.info loc id with
    | exception Not_found -> false
    | info -> (
        match info.Locality.kind with
        | Locality.Leading_regular _ | Locality.Leading_irregular -> true
        | Locality.Follower _ | Locality.Inner_invariant -> false)
  in
  let recurrences =
    List.filter_map
      (fun comp ->
        let internal =
          List.filter (fun e -> mem_int e.src comp && mem_int e.dst comp) cedges
        in
        if internal = [] then None
        else begin
          (* enumerate simple cycles inside the component (it is tiny) and
             take the critical one: the most leading refs per iteration *)
          let best = ref None in
          let consider cycle_nodes dist =
            let r = List.length (List.filter is_leading cycle_nodes) in
            if r > 0 then begin
              let iota = Int.max 1 dist in
              let a = float_of_int r /. float_of_int iota in
              match !best with
              | Some (_, _, a') when a' >= a -> ()
              | _ -> best := Some (r, iota, a)
            end
          in
          let budget = ref 2000 in
          let rec dfs start path dist v =
            if !budget > 0 then
              List.iter
                (fun e ->
                  if e.src = v then begin
                    decr budget;
                    if e.dst = start then consider (v :: path) (dist + e.distance)
                    else if (not (mem_int e.dst path)) && e.dst > start then
                      dfs start (v :: path) (dist + e.distance) e.dst
                  end)
                internal
          in
          List.iter (fun s -> dfs s [] 0 s) comp;
          match !best with
          | None -> None
          | Some (r_count, iota, alpha) ->
              let rec_class =
                if List.exists (fun e -> e.cls = Address) internal then Address
                else Cache_line
              in
              Some { rec_nodes = comp; rec_class; r_count; iota; alpha }
        end)
      sccs
  in
  {
    edges;
    recurrences;
    has_address_recurrence =
      List.exists (fun r -> r.rec_class = Address) recurrences;
  }

let alpha (t : t) = List.fold_left (fun acc r -> Float.max acc r.alpha) 0.0 t.recurrences

(* edges by source, destination, class (cache-line first) and distance *)
let edge_order a b =
  let rank = function Cache_line -> 0 | Address -> 1 in
  let c = Int.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Int.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Int.compare (rank a.cls) (rank b.cls) in
      if c <> 0 then c else Int.compare a.distance b.distance

let pp ppf (t : t) =
  Format.fprintf ppf "@[<v>edges:";
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  #%d -> #%d  %s dist %d" e.src e.dst
        (match e.cls with Cache_line -> "cache-line" | Address -> "address")
        e.distance)
    (List.sort edge_order t.edges);
  Format.fprintf ppf "@,recurrences:";
  List.iter
    (fun r ->
      Format.fprintf ppf "@,  {%s} %s R=%d iota=%d alpha=%.2f"
        (String.concat "," (List.map string_of_int r.rec_nodes))
        (match r.rec_class with Cache_line -> "cache-line" | Address -> "address")
        r.r_count r.iota r.alpha)
    t.recurrences;
  Format.fprintf ppf "@]"

let to_dot ?(name = "depgraph") loc (t : t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  let nodes =
    List.sort_uniq Int.compare
      (List.concat_map (fun e -> [ e.src; e.dst ]) t.edges)
  in
  List.iter
    (fun id ->
      let label =
        match Locality.info loc id with
        | exception Not_found -> Printf.sprintf "#%d" id
        | info -> (
            let where =
              match info.Locality.array with Some a -> a | None -> "heap"
            in
            match info.Locality.kind with
            | Locality.Leading_regular { lm; _ } ->
                Printf.sprintf "#%d %s (leading, Lm=%d)" id where lm
            | Locality.Leading_irregular ->
                Printf.sprintf "#%d %s (leading, irregular)" id where
            | Locality.Follower { leader; _ } ->
                Printf.sprintf "#%d %s (follows #%d)" id where leader
            | Locality.Inner_invariant -> Printf.sprintf "#%d %s (invariant)" id where)
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" id label))
    nodes;
  List.iter
    (fun e ->
      let style = match e.cls with Address -> "solid" | Cache_line -> "dotted" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [style=%s,label=\"%d\"];\n" e.src e.dst style
           e.distance))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

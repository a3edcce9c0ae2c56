open Ast

(* ------------------------------------------------------------------ *)
(* Generic rewriting                                                   *)
(* ------------------------------------------------------------------ *)

let rec map_refs_expr f e =
  match e with
  | Const _ | Ivar _ | Scalar _ -> e
  | Load r -> Load (map_ref f r)
  | Unop (op, a) -> Unop (op, map_refs_expr f a)
  | Binop (op, a, b) -> Binop (op, map_refs_expr f a, map_refs_expr f b)

and map_ref f r =
  let target =
    match r.target with
    | Direct _ -> r.target
    | Indirect { array; index } -> Indirect { array; index = map_refs_expr f index }
    | Field { region; ptr; field } -> Field { region; ptr = map_refs_expr f ptr; field }
  in
  f { r with target }

let rec map_refs f stmt =
  match stmt with
  | Assign (lhs, e) ->
      let lhs = match lhs with
        | Lscalar _ -> lhs
        | Lmem r -> Lmem (map_ref f r)
      in
      Assign (lhs, map_refs_expr f e)
  | Loop l -> Loop { l with body = List.map (map_refs f) l.body }
  | Chase c ->
      Chase
        { c with
          init = map_refs_expr f c.init;
          cbody = List.map (map_refs f) c.cbody;
        }
  | If (cond, t, e) ->
      If (map_refs_expr f cond, List.map (map_refs f) t, List.map (map_refs f) e)
  | Use e -> Use (map_refs_expr f e)
  | Barrier -> Barrier
  | Prefetch r -> Prefetch (map_ref f r)

let rec map_stmt f stmt =
  let stmt =
    match stmt with
    | Loop l -> Loop { l with body = List.map (map_stmt f) l.body }
    | Chase c -> Chase { c with cbody = List.map (map_stmt f) c.cbody }
    | If (cond, t, e) -> If (cond, List.map (map_stmt f) t, List.map (map_stmt f) e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  f stmt

(* ------------------------------------------------------------------ *)
(* Renumbering                                                         *)
(* ------------------------------------------------------------------ *)

let renumber p =
  let counter = ref 0 in
  let fresh r =
    incr counter;
    { r with ref_id = !counter }
  in
  let fresh_chase stmt =
    match stmt with
    | Chase c ->
        incr counter;
        Chase { c with next_ref_id = !counter }
    | _ -> stmt
  in
  { p with body = List.map (fun s -> map_stmt fresh_chase (map_refs fresh s)) p.body }

let max_ref_id p =
  let best = ref 0 in
  let note r =
    if r.ref_id > !best then best := r.ref_id;
    r
  in
  let note_chase stmt =
    (match stmt with
    | Chase c -> if c.next_ref_id > !best then best := c.next_ref_id
    | _ -> ());
    stmt
  in
  ignore (List.map (fun s -> map_stmt note_chase (map_refs note s)) p.body);
  !best

let chases p =
  let acc = ref [] in
  let note stmt =
    (match stmt with Chase c -> acc := c :: !acc | _ -> ());
    stmt
  in
  ignore (List.map (map_stmt note) p.body);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Reference inventory                                                 *)
(* ------------------------------------------------------------------ *)

type ref_info = {
  ref_ : mem_ref;
  is_store : bool;
  loop_path : loop list;
  chase_path : chase list;
}

let refs_in_stmts stmts =
  let acc = ref [] in
  let note ~loops ~chases ~is_store r =
    acc :=
      { ref_ = r; is_store; loop_path = List.rev loops; chase_path = List.rev chases }
      :: !acc
  in
  let rec walk_expr ~loops ~chases e =
    match e with
    | Const _ | Ivar _ | Scalar _ -> ()
    | Load r -> walk_ref ~loops ~chases ~is_store:false r
    | Unop (_, a) -> walk_expr ~loops ~chases a
    | Binop (_, a, b) ->
        walk_expr ~loops ~chases a;
        walk_expr ~loops ~chases b
  and walk_ref ~loops ~chases ~is_store r =
    (match r.target with
    | Direct _ -> ()
    | Indirect { index; _ } -> walk_expr ~loops ~chases index
    | Field { ptr; _ } -> walk_expr ~loops ~chases ptr);
    note ~loops ~chases ~is_store r
  and walk_stmt ~loops ~chases stmt =
    match stmt with
    | Assign (lhs, e) ->
        walk_expr ~loops ~chases e;
        (match lhs with
        | Lscalar _ -> ()
        | Lmem r -> walk_ref ~loops ~chases ~is_store:true r)
    | Loop l -> List.iter (walk_stmt ~loops:(l :: loops) ~chases) l.body
    | Chase c ->
        walk_expr ~loops ~chases c.init;
        List.iter (walk_stmt ~loops ~chases:(c :: chases)) c.cbody
    | If (cond, t, e) ->
        walk_expr ~loops ~chases cond;
        List.iter (walk_stmt ~loops ~chases) t;
        List.iter (walk_stmt ~loops ~chases) e
    | Use e -> walk_expr ~loops ~chases e
    | Barrier -> ()
    | Prefetch r ->
        (* a prefetch is a hint, not an access: it is not part of the
           reference inventory the analyses classify *)
        (match r.target with
        | Direct _ -> ()
        | Indirect { index; _ } -> walk_expr ~loops ~chases index
        | Field { ptr; _ } -> walk_expr ~loops ~chases ptr)
  in
  List.iter (walk_stmt ~loops:[] ~chases:[]) stmts;
  List.rev !acc

let refs p = refs_in_stmts p.body

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let find_array p name =
  match List.find_opt (fun a -> String.equal a.a_name name) p.arrays with
  | Some a -> a
  | None -> raise Not_found

let find_region p name =
  match List.find_opt (fun r -> String.equal r.r_name name) p.regions with
  | Some r -> r
  | None -> raise Not_found

let array_exists p name = List.exists (fun a -> String.equal a.a_name name) p.arrays

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  try
    List.iter
      (fun a ->
        if a.length <= 0 then fail "array %s has non-positive length" a.a_name;
        if a.elem_size <= 0 then fail "array %s has non-positive elem_size" a.a_name)
      p.arrays;
    List.iter
      (fun r ->
        if r.node_count <= 0 then fail "region %s has non-positive node count" r.r_name;
        if r.node_size <= 0 || r.node_size mod 8 <> 0 then
          fail "region %s: node_size must be a positive multiple of 8" r.r_name)
      p.regions;
    let seen_ids = Hashtbl.create 64 in
    List.iter
      (fun info ->
        let id = info.ref_.ref_id in
        if id <= 0 then fail "reference with unassigned id (renumber the program)";
        if Hashtbl.mem seen_ids id then fail "duplicate ref id %d" id;
        Hashtbl.add seen_ids id ();
        (match info.ref_.target with
        | Direct { array; _ } | Indirect { array; _ } ->
            if not (array_exists p array) then fail "undeclared array %s" array
        | Field { region; field; _ } -> (
            match List.find_opt (fun r -> String.equal r.r_name region) p.regions with
            | None -> fail "undeclared region %s" region
            | Some r ->
                if field < 0 || (field * 8) + 8 > r.node_size then
                  fail "region %s: field %d outside node" region field));
        let vars = List.map (fun (l : Ast.loop) -> l.var) info.loop_path in
        let sorted = List.sort_uniq String.compare vars in
        if List.length sorted <> List.length vars then
          fail "duplicate loop variable along a nesting path: %s"
            (String.concat "," vars);
        List.iter
          (fun (l : Ast.loop) ->
            if l.step <= 0 then fail "loop %s has non-positive step" l.var)
          info.loop_path)
      (refs p);
    Ok ()
  with Bad msg -> err "%s: %s" p.p_name msg

let scalars_written stmts =
  let acc = ref [] in
  let rec walk stmt =
    match stmt with
    | Assign (Lscalar v, _) -> if not (List.mem v !acc) then acc := v :: !acc
    | Assign (Lmem _, _) | Use _ | Barrier | Prefetch _ -> ()
    | Loop l -> List.iter walk l.body
    | Chase c -> List.iter walk c.cbody
    | If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
  in
  List.iter walk stmts;
  List.rev !acc

open Memclust_ir
open Ast

type error = Not_unrollable of string | Illegal of string

let pp_error ppf = function
  | Not_unrollable m -> Format.fprintf ppf "not unrollable: %s" m
  | Illegal m -> Format.fprintf ppf "illegal: %s" m

(* ------------------------------------------------------------------ *)
(* Scalar privatizability                                              *)
(* ------------------------------------------------------------------ *)

(* First dynamic access to each scalar in a pre-order walk: a scalar whose
   first access is a write is privatizable (each unrolled copy can own a
   renamed instance). *)
let first_accesses stmts =
  let first : (string, [ `Read | `Write ]) Hashtbl.t = Hashtbl.create 8 in
  let note v kind = if not (Hashtbl.mem first v) then Hashtbl.add first v kind in
  let rec expr e =
    match e with
    | Const _ | Ivar _ -> ()
    | Scalar v -> note v `Read
    | Load r -> ref_ r
    | Unop (_, a) -> expr a
    | Binop (_, a, b) ->
        expr a;
        expr b
  and ref_ r =
    match r.target with
    | Direct _ -> ()
    | Indirect { index; _ } -> expr index
    | Field { ptr; _ } -> expr ptr
  in
  let rec stmt s =
    match s with
    | Assign (Lscalar v, e) ->
        expr e;
        note v `Write
    | Assign (Lmem r, e) ->
        expr e;
        ref_ r
    | Use e -> expr e
    | Barrier -> ()
    | Prefetch r -> ref_ r
    | If (c, t, e) ->
        expr c;
        List.iter stmt t;
        List.iter stmt e
    | Loop l -> List.iter stmt l.body
    | Chase c ->
        expr c.init;
        note c.cvar `Write;
        List.iter stmt c.cbody
  in
  List.iter stmt stmts;
  first

(* All scalars written in the loop body are written before read (looking
   only at the loop's own level of statements and descending through
   conditionals): the condition for per-copy renaming to be sound. *)
let scalars_privatizable (l : loop) =
  let first = first_accesses l.body in
  let written = Program.scalars_written l.body in
  List.for_all (fun v -> Hashtbl.find_opt first v = Some `Write) written

(* ------------------------------------------------------------------ *)
(* Jamming                                                             *)
(* ------------------------------------------------------------------ *)

let null_ptr = Const (Vptr 0)

let advance_stmt region cvar next_field =
  Assign
    ( Lscalar cvar,
      Load { ref_id = 0; target = Field { region; ptr = Scalar cvar; field = next_field } }
    )

exception Jam_fail of string

(* Fuse the copies' statement lists position by position. *)
let rec jam (copies : stmt list list) : stmt list =
  match copies with
  | [] -> []
  | first :: _ ->
      List.concat
        (List.mapi (fun pos _ -> jam_at (List.map (fun c -> List.nth c pos) copies)) first)

and jam_at (stmts : stmt list) : stmt list =
  match stmts with
  | Loop l0 :: _ ->
      let compatible =
        List.for_all
          (function
            | Loop l ->
                String.equal l.var l0.var && Affine.equal l.lo l0.lo
                && Affine.equal l.hi l0.hi && l.step = l0.step
            | _ -> false)
          stmts
      in
      if compatible then begin
        let bodies = List.map (function Loop l -> l.body | _ -> assert false) stmts in
        [ Loop { l0 with body = jam bodies } ]
      end
      else stmts (* unroll without fusing this inner loop *)
  | Chase _ :: rest when List.for_all (function Chase _ -> true | _ -> false) rest
    ->
      jam_chases (List.map (function Chase c -> c | _ -> assert false) stmts)
  | _ -> stmts

and jam_chases (chases : chase list) : stmt list =
  match chases with
  | [] -> []
  | c0 :: others ->
      let same_region = List.for_all (fun c -> String.equal c.cregion c0.cregion) others in
      if not same_region then raise (Jam_fail "chases over different regions");
      let equal_counts =
        match c0.count with
        | Some k -> List.for_all (fun c -> c.count = Some k) others
        | None -> false
      in
      let null_terminated = List.for_all (fun c -> c.count = None) (c0 :: others) in
      if not (equal_counts || null_terminated) then
        raise (Jam_fail "chase iteration counts differ between copies");
      (* bind the extra chains' cursors before the fused loop *)
      let pre = List.map (fun c -> Assign (Lscalar c.cvar, c.init)) others in
      let advance c = advance_stmt c.cregion c.cvar c.next_field in
      let extra_blocks =
        List.map
          (fun c ->
            let block = c.cbody @ [ advance c ] in
            if equal_counts then block
            else [ If (Binop (Eq, Scalar c.cvar, null_ptr), [], block) ])
          others
      in
      let fused =
        Chase { c0 with cbody = c0.cbody @ List.concat extra_blocks }
      in
      let postludes =
        if equal_counts then []
        else
          List.map
            (fun c -> Chase { c with init = Scalar c.cvar; count = None })
            others
      in
      pre @ [ fused ] @ postludes

(* ------------------------------------------------------------------ *)
(* The transformation                                                  *)
(* ------------------------------------------------------------------ *)

let chase_cvars stmts =
  let acc = ref [] in
  let rec walk s =
    match s with
    | Chase c ->
        acc := c.cvar :: !acc;
        List.iter walk c.cbody
    | Loop l -> List.iter walk l.body
    | If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
    | Assign _ | Use _ | Barrier | Prefetch _ -> ()
  in
  List.iter walk stmts;
  !acc

let const_bounds ~params (l : loop) =
  let env v =
    match List.assoc_opt v params with Some k -> k | None -> raise Exit
  in
  match (Affine.eval env l.lo, Affine.eval env l.hi) with
  | lo, hi -> Some (lo, hi)
  | exception Exit -> None

let apply ?(params = []) ?(outer_ranges = []) ?(interchange_postlude = true)
    ~stamp ~factor (l : loop) =
  if factor <= 1 then Ok [ Loop l ]
  else if not (scalars_privatizable l) then
    Error
      (Not_unrollable
         "a scalar written in the body is read before written (loop-carried)")
  else if not (Legality.unroll_jam_legal ~params ~outer_ranges ~target:l ~factor)
  then Error (Illegal "a data dependence is carried by the unrolled loop")
  else begin
    match const_bounds ~params l with
    | None ->
        Error (Not_unrollable "loop bounds are not constant under the parameters")
    | Some (lo, hi) ->
        let s = l.step in
        let count = if hi > lo then (hi - lo + s - 1) / s else 0 in
        if count < factor then
          Error (Not_unrollable "fewer iterations than the unroll factor")
        else begin
          let to_rename =
            List.sort_uniq String.compare
              (Program.scalars_written l.body @ chase_cvars l.body)
          in
          let copy k =
            let shift st = Subst.shift_var l.var (k * s) st in
            let rename st =
              if k = 0 then st
              else
                Subst.rename_scalars
                  (fun v ->
                    if List.mem v to_rename then
                      Subst.copy_name ~tag:'u' ~stamp ~copy:k v
                    else v)
                  st
            in
            List.map (fun st -> rename (shift st)) l.body
          in
          let copies = List.init factor copy in
          match jam copies with
          | exception Jam_fail msg -> Error (Not_unrollable msg)
          | jammed ->
              let main =
                Loop
                  {
                    l with
                    step = s * factor;
                    hi = Affine.sub l.hi (Affine.const ((factor - 1) * s));
                    body = jammed;
                  }
              in
              let rem = count mod factor in
              let postlude =
                if rem = 0 then []
                else begin
                  let start = lo + ((count - rem) * s) in
                  let post = { l with lo = Affine.const start } in
                  let interchanged =
                    if not interchange_postlude then None
                    else
                      match post.body with
                      | [ Loop inner ]
                        when (not (List.mem l.var (Affine.vars inner.lo)))
                             && (not (List.mem l.var (Affine.vars inner.hi)))
                             && Legality.interchange_legal ~params ~outer_ranges
                                  ~outer:post ~inner ->
                          Some
                            (Loop
                               {
                                 inner with
                                 parallel = false;
                                 body =
                                   [ Loop { post with parallel = false; body = inner.body } ];
                               })
                      | _ -> None
                  in
                  match interchanged with
                  | Some st -> [ st ]
                  | None -> [ Loop post ]
                end
              in
              Ok (main :: postlude)
        end
  end

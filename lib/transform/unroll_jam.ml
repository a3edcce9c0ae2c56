open Memclust_ir
open Ast

type error = Not_unrollable of string | Illegal of string

let pp_error ppf = function
  | Not_unrollable m -> Format.fprintf ppf "not unrollable: %s" m
  | Illegal m -> Format.fprintf ppf "illegal: %s" m

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

let apply ?(params = []) ?(outer_ranges = []) ~stamp ~factor (l : loop) =
  if factor <= 1 then Ok [ Loop l ]
  else
    (* per-copy renaming is sound only when every written scalar is
       written before it is read *)
    let written = Program.scalars_written l.body in
    if not (List.equal String.equal (Inner_unroll.write_first_scalars l.body) written)
    then
      Error
        (Not_unrollable
           "a scalar written in the body is read before written (loop-carried)")
    else if not (Legality.unroll_jam_legal ~params ~outer_ranges ~target:l ~factor)
    then Error (Illegal "a data dependence is carried by the unrolled loop")
    else
      let renamed = List.sort_uniq String.compare (written @ chase_cvars l.body) in
      match
        Inner_unroll.unroll ~params ~tag:'u' ~stamp ~factor ~renamed ~combine:jam l
      with
      | exception Jam_fail msg -> Error (Not_unrollable msg)
      | Error msg -> Error (Not_unrollable msg)
      | Ok (main, None) -> Ok [ Loop main ]
      | Ok (main, Some leftover) ->
          (* a perfect nest's leftover iterations are interchanged so they
             still cluster some misses (paper §2.2) *)
          let postlude =
            match Interchange.apply ~params ~outer_ranges leftover with
            | Ok (Loop swapped) -> Loop { swapped with parallel = false }
            | Ok _ | Error _ -> Loop leftover
          in
          Ok [ Loop main; postlude ]

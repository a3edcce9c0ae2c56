open Memclust_ir
open Ast

(* Scalars whose first access in the body is a write are privatizable:
   renaming them per copy removes false dependences between copies so the
   miss-packing scheduler can interleave them. Loop-carried scalars (read
   before written) keep their shared name, preserving semantics. A
   pre-order walk visits the accesses in the body's execution order. *)
let write_first_scalars stmts =
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
  List.filter
    (fun v -> Hashtbl.find_opt first v = Some `Write)
    (Program.scalars_written stmts)

let unroll ~params ~tag ~stamp ~factor ~renamed ~combine (l : loop) =
  match Legality.trip ~params l with
  | None -> Error "loop bounds are not constant under the parameters"
  | Some (_, count) when count < factor ->
      Error "fewer iterations than the unroll factor"
  | Some (first, count) ->
      let s = l.step in
      let copy k =
        let rename st =
          if k = 0 then st
          else
            Subst.rename_scalars
              (fun v ->
                if List.mem v renamed then Subst.copy_name ~tag ~stamp ~copy:k v
                else v)
              st
        in
        List.map (fun st -> rename (Subst.shift_var l.var (k * s) st)) l.body
      in
      let main =
        {
          l with
          step = s * factor;
          hi = Affine.sub l.hi (Affine.const ((factor - 1) * s));
          body = combine (List.init factor copy);
        }
      in
      let rem = count mod factor in
      Ok
        ( main,
          if rem = 0 then None
          else Some { l with lo = Affine.const (first + ((count - rem) * s)) } )

let apply ?(params = []) ~stamp ~factor (l : loop) =
  if factor <= 1 then Ok [ Loop l ]
  else
    match
      unroll ~params ~tag:'k' ~stamp ~factor ~renamed:(write_first_scalars l.body)
        ~combine:List.concat l
    with
    | Error msg -> Error msg
    | Ok (main, None) -> Ok [ Loop main ]
    | Ok (main, Some leftover) -> Ok [ Loop main; Loop leftover ]

open Memclust_ir
open Memclust_locality
open Ast

let is_leading loc id =
  match Locality.info loc id with
  | exception Not_found -> false
  | info -> (
      match info.Locality.kind with
      | Locality.Leading_regular _ | Locality.Leading_irregular -> true
      | Locality.Follower _ | Locality.Inner_invariant -> false)

let is_miss_load loc = function
  | Assign (Lscalar _, Load r) -> is_leading loc r.ref_id
  | _ -> false

(* -------- per-statement read/write summaries -------- *)

(* A memory location: array/region name plus, when the access is regular,
   the affine subscript split into its shape (the subscript minus its
   constant) and that constant ([shape = None]: irregular, may touch
   anything in that object). Two regular accesses with the same shape but
   different constants never alias. *)
type mem_site = { obj : string; shape : Affine.t option; offset : int }

type summary = {
  s_reads : string list;  (* scalars read *)
  s_writes : string list;  (* scalars written *)
  s_mem_reads : mem_site list;
  s_mem_writes : mem_site list;
  s_barrier : bool;  (* control flow: fixed relative to everything *)
  s_read_sig : int;  (* one bit per name read: scalar or memory object *)
  s_write_sig : int;  (* one bit per name written *)
}

let name_bit name = 1 lsl (Hashtbl.hash name mod 63)

let sites_alias a b =
  String.equal a.obj b.obj
  &&
  match (a.shape, b.shape) with
  | Some x, Some y -> if Affine.equal x y then a.offset = b.offset else true
  | _ -> true

let summarize stmt =
  let reads = ref [] and writes = ref [] in
  let mreads = ref [] and mwrites = ref [] in
  let barrier = ref false in
  let add l v = if not (List.mem v !l) then l := v :: !l in
  let rec expr e =
    match e with
    | Const _ | Ivar _ -> ()
    | Scalar v -> add reads v
    | Load r -> ref_ false r
    | Unop (_, a) -> expr a
    | Binop (_, a, b) ->
        expr a;
        expr b
  and ref_ is_store r =
    let target = if is_store then mwrites else mreads in
    let irregular obj = { obj; shape = None; offset = 0 } in
    match r.target with
    | Direct { array; index } ->
        let offset = Affine.constant index in
        add target
          { obj = array; shape = Some (Affine.sub index (Affine.const offset)); offset }
    | Indirect { array; index } ->
        add target (irregular array);
        expr index
    | Field { region; ptr; _ } ->
        add target (irregular region);
        expr ptr
  in
  let rec walk s =
    match s with
    | Assign (Lscalar v, e) ->
        expr e;
        add writes v
    | Assign (Lmem r, e) ->
        expr e;
        ref_ true r
    | Use e -> expr e
    | Prefetch r -> ref_ false r (* reads only: freely hoistable *)
    | Barrier -> barrier := true
    | If (c, t, e) ->
        (* not a barrier: its summary covers both branches, and hoisting a
           side-effect-free load across a conditional is always sound *)
        expr c;
        List.iter walk t;
        List.iter walk e
    | Loop l ->
        barrier := true;
        List.iter walk l.body
    | Chase c ->
        barrier := true;
        expr c.init;
        add writes c.cvar;
        List.iter walk c.cbody
  in
  walk stmt;
  let signature names sites =
    List.fold_left (fun acc m -> acc lor name_bit m.obj)
      (List.fold_left (fun acc v -> acc lor name_bit v) 0 names)
      sites
  in
  {
    s_reads = !reads;
    s_writes = !writes;
    s_mem_reads = !mreads;
    s_mem_writes = !mwrites;
    s_barrier = !barrier;
    s_read_sig = signature !reads !mreads;
    s_write_sig = signature !writes !mwrites;
  }

(* Every conflict below pairs a name one statement writes with a name the
   other reads or writes, so disjoint signatures rule it out cheaply. *)
let conflicts a b =
  a.s_barrier || b.s_barrier
  || (a.s_write_sig land (b.s_read_sig lor b.s_write_sig) <> 0
     || a.s_read_sig land b.s_write_sig <> 0)
     && (List.exists (fun v -> List.mem v b.s_reads || List.mem v b.s_writes) a.s_writes
        || List.exists (fun v -> List.mem v b.s_writes) a.s_reads
        || List.exists
             (fun m ->
               List.exists (sites_alias m) b.s_mem_reads
               || List.exists (sites_alias m) b.s_mem_writes)
             a.s_mem_writes
        || List.exists (fun m -> List.exists (sites_alias m) b.s_mem_writes) a.s_mem_reads)

let stmts_conflict a b = conflicts (summarize a) (summarize b)

(* The lowest-index ready miss load, otherwise the lowest-index ready
   statement, until all are emitted. [waiting.(i)] counts i's un-emitted
   predecessors (earlier statements it conflicts with); emitting j
   decrements the counts of its successors, so a pick is one scan. *)
let pack_misses loc stmts =
  let n = List.length stmts in
  if n <= 1 then stmts
  else begin
    let arr = Array.of_list stmts in
    let sums = Array.map summarize arr in
    let miss = Array.map (is_miss_load loc) arr in
    let waiting = Array.make n 0 in
    let succs = Array.make n [] in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        if conflicts sums.(j) sums.(i) then begin
          waiting.(i) <- waiting.(i) + 1;
          succs.(j) <- i :: succs.(j)
        end
      done
    done;
    let emitted = Array.make n false in
    let out = ref [] in
    for _ = 0 to n - 1 do
      let first_ready = ref (-1) and pick = ref (-1) in
      let i = ref 0 in
      while !pick < 0 && !i < n do
        if (not emitted.(!i)) && waiting.(!i) = 0 then begin
          if miss.(!i) then pick := !i
          else if !first_ready < 0 then first_ready := !i
        end;
        incr i
      done;
      let pick = if !pick >= 0 then !pick else !first_ready in
      assert (pick >= 0);
      emitted.(pick) <- true;
      List.iter (fun k -> waiting.(k) <- waiting.(k) - 1) succs.(pick);
      out := arr.(pick) :: !out
    done;
    List.rev !out
  end

open Ast

(* Dependence tokens are passed positionally (at most two per operation,
   [-1] = none) instead of as a list: the executor runs once per dynamic
   operation, and the per-op list allocation was measurable in both trace
   lowering and cache profiling. *)
type emitter = {
  e_int : int -> int -> int;
  e_fp : lat:int -> int -> int -> int;
  e_load : ref_id:int -> addr:int -> int -> int -> int;
  e_store : ref_id:int -> addr:int -> int -> int -> int;
  e_prefetch : ref_id:int -> addr:int -> int -> int -> unit;
  e_branch : int -> int -> unit;
  e_barrier : unit -> unit;
  e_set_proc : int -> unit;
}

let null_emitter =
  {
    e_int = (fun _ _ -> -1);
    e_fp = (fun ~lat:_ _ _ -> -1);
    e_load = (fun ~ref_id:_ ~addr:_ _ _ -> -1);
    e_store = (fun ~ref_id:_ ~addr:_ _ _ -> -1);
    e_prefetch = (fun ~ref_id:_ ~addr:_ _ _ -> ());
    e_branch = (fun _ _ -> ());
    e_barrier = ignore;
    e_set_proc = ignore;
  }

exception Limit_exceeded

let fp_latency = function
  | Add | Sub | Min | Max -> 3
  | Mul -> 3
  | Div | Mod -> 16
  | Lt | Le | Eq -> 1

(* ------------------------------------------------------------------ *)
(* The executor compiles the (small, static) AST to a tree of closures
   once per run, then drives the closures through the (large, dynamic)
   iteration space. Building the tree interns every scalar name to an
   integer slot, gives every index binding (a parameter or a loop) a slot
   of its own, and resolves every array and region name to its store
   handle. So the per-operation cost has no string hashing, no name lookup
   and no test that an index is bound.

   No value is boxed on that path. A compiled expression returns its tag
   as an immediate int, one of [Data]'s codes (float, int, pointer), and
   leaves its payload in [rt.iv] (an int or a pointer) or [rt.fv.(0)] (a
   float) and its dependence token in [rt.tok]. Scalars live in the same
   three parts, a tag of -1 marking an unbound one. *)

let tfloat = Data.tag_float
let tint = Data.tag_int
let tptr = Data.tag_ptr

type rt = {
  emit : emitter;
  nprocs : int;
  max_ops : int;
  mutable ops : int;
  mutable iv : int;  (* payload of an int or pointer result *)
  fv : float array;  (* one cell: payload of a float result *)
  mutable tok : int;  (* token of the result *)
  ivar : int array;  (* the value of each index binding *)
  stag : int array;  (* scalar variables: tag (-1 = unbound), payloads, token *)
  sint : int array;
  sflt : float array;
  stok : int array;
  mutable depth_parallel : int;  (* > 0 while inside a parallel loop *)
}

let tick rt =
  rt.ops <- rt.ops + 1;
  if rt.ops > rt.max_ops then raise Limit_exceeded

let[@inline] ret_int rt n =
  rt.iv <- n;
  tint

let[@inline] ret_ptr rt n =
  rt.iv <- n;
  tptr

let[@inline] ret_float rt x =
  rt.fv.(0) <- x;
  tfloat

(* Numeric coercions: the value domain is deliberately loose — synthetic
   workloads index arrays with computed data, so we coerce rather than
   fail. *)
let[@inline] to_int rt t = if t = tfloat then int_of_float rt.fv.(0) else rt.iv

let[@inline] unop rt op ta ia fa =
  match op with
  | Neg -> if ta = tfloat then ret_float rt (-.fa) else ret_int rt (-ia)
  | Abs -> if ta = tfloat then ret_float rt (Float.abs fa) else ret_int rt (abs ia)
  | Sqrt -> ret_float rt (sqrt (Float.abs (if ta = tfloat then fa else float_of_int ia)))
  | Trunc -> ret_int rt (if ta = tfloat then int_of_float fa else ia)

(* A float operand makes the operation a float one; otherwise pointers
   count as ints, except that pointer arithmetic stays a pointer (a float
   added to a pointer truncates). Division by zero yields 0 to keep
   synthetic inputs total. Comparisons yield the int 1 or 0; float ones
   follow IEEE, so a NaN compares false. *)
let[@inline] binop rt op ta ia fa tb ib fb =
  if ta <> tfloat && tb <> tfloat then
    match op with
    | Add -> if ta = tptr || tb = tptr then ret_ptr rt (ia + ib) else ret_int rt (ia + ib)
    | Sub -> ret_int rt (ia - ib)
    | Mul -> ret_int rt (ia * ib)
    | Div -> ret_int rt (if ib = 0 then 0 else ia / ib)
    | Mod -> ret_int rt (if ib = 0 then 0 else ia mod ib)
    | Min -> ret_int rt (Int.min ia ib)
    | Max -> ret_int rt (Int.max ia ib)
    | Lt -> ret_int rt (Bool.to_int (ia < ib))
    | Le -> ret_int rt (Bool.to_int (ia <= ib))
    | Eq -> ret_int rt (Bool.to_int (ia = ib))
  else
    let x = if ta = tfloat then fa else float_of_int ia
    and y = if tb = tfloat then fb else float_of_int ib in
    match op with
    | Add ->
        if ta = tptr then ret_ptr rt (ia + int_of_float y)
        else if tb = tptr then ret_ptr rt (ib + int_of_float x)
        else ret_float rt (x +. y)
    | Sub -> ret_float rt (x -. y)
    | Mul -> ret_float rt (x *. y)
    | Div -> ret_float rt (if y = 0.0 then 0.0 else x /. y)
    | Mod -> ret_float rt (if y = 0.0 then 0.0 else Float.rem x y)
    | Min -> ret_float rt ((Float.min [@inlined]) x y)
    | Max -> ret_float rt ((Float.max [@inlined]) x y)
    | Lt -> ret_int rt (Bool.to_int (x < y))
    | Le -> ret_int rt (Bool.to_int (x <= y))
    | Eq -> ret_int rt (Bool.to_int (x = y))

(* the byte address of a field whose slot [Data.rh_slot] has found (and
   so validated): what [Data.rh_addr] gives, fields being 8-byte slots,
   without validating the pointer a second time *)
let[@inline] field_addr p field = p + (8 * field)

(* a store slot into the result registers, and back *)
let[@inline] load rt s k =
  let t = Data.tag s k in
  if t = tfloat then rt.fv.(0) <- Data.float_at s k else rt.iv <- Data.int_at s k;
  t

let[@inline] store s k t iv fv =
  if t = tfloat then Data.set_float s k fv else Data.set_int s k ~tag:t iv

module Smap = Map.Make (String)

(* Compile-time environment. [ivars] maps each index variable in scope
   (the parameters and the enclosing loops) to its slot; the counters and
   the scalar table are shared by the whole tree. *)
type cenv = {
  data : Data.t;
  ivars : int Smap.t;
  n_ivars : int ref;
  svar_ids : (string, int) Hashtbl.t;
}

let bind_ivar env v =
  let id = !(env.n_ivars) in
  incr env.n_ivars;
  (id, { env with ivars = Smap.add v id env.ivars })

let svar_id env v =
  match Hashtbl.find_opt env.svar_ids v with
  | Some id -> id
  | None ->
      let id = Hashtbl.length env.svar_ids in
      Hashtbl.replace env.svar_ids v id;
      id

let unbound_ivar v = invalid_arg (Printf.sprintf "Exec: unbound index variable %s" v)

(* A name is resolved when the tree is built; an unknown one raises its
   [Invalid_argument] only when, and where, an access through it runs. *)
let resolve find env name =
  match find env.data name with
  | h -> Ok h
  | exception Invalid_argument m -> Error m

let[@inline] use = function Ok h -> h | Error m -> invalid_arg m

(* A form with an index out of scope raises when evaluated, naming the
   index its evaluation meets first: the second of two terms (their sum
   is evaluated right to left), else the first in name order. The common
   0/1/2-term shapes get dedicated closures. *)
let compile_affine env a =
  let c0 = Affine.constant a in
  let vars = Affine.vars a in
  match (vars, List.filter (fun v -> not (Smap.mem v env.ivars)) vars) with
  | [ _; _ ], [ _; v ] | _, v :: _ -> fun _ -> unbound_ivar v
  | _, [] -> (
      match List.map (fun v -> (Smap.find v env.ivars, Affine.coeff a v)) vars with
      | [] -> fun _ -> c0
      | [ (s, c) ] -> fun rt -> c0 + (c * rt.ivar.(s))
      | [ (s1, c1); (s2, c2) ] -> fun rt -> c0 + (c1 * rt.ivar.(s1)) + (c2 * rt.ivar.(s2))
      | l ->
          let slots = Array.of_list (List.map fst l)
          and coeffs = Array.of_list (List.map snd l) in
          fun rt ->
            let acc = ref c0 in
            for k = 0 to Array.length slots - 1 do
              acc := !acc + (coeffs.(k) * rt.ivar.(slots.(k)))
            done;
            !acc)

(* Compile an expression to a closure returning its tag; the payload and
   the producing token are left in [rt]. *)
let rec compile_expr env e : rt -> int =
  match e with
  | Const (Vfloat x) ->
      fun rt ->
        rt.tok <- -1;
        ret_float rt x
  | Const (Vint n) ->
      fun rt ->
        rt.tok <- -1;
        ret_int rt n
  | Const (Vptr a) ->
      fun rt ->
        rt.tok <- -1;
        ret_ptr rt a
  | Ivar v -> (
      match Smap.find_opt v env.ivars with
      | Some s ->
          fun rt ->
            rt.tok <- -1;
            ret_int rt rt.ivar.(s)
      | None -> fun _ -> unbound_ivar v)
  | Scalar v ->
      let id = svar_id env v in
      fun rt ->
        let t = rt.stag.(id) in
        if t < 0 then invalid_arg (Printf.sprintf "Exec: unbound scalar %s" v);
        rt.tok <- rt.stok.(id);
        if t = tfloat then rt.fv.(0) <- rt.sflt.(id) else rt.iv <- rt.sint.(id);
        t
  | Load r -> compile_load env r
  | Unop (op, a) ->
      let ca = compile_expr env a in
      let sqrt_ = match op with Sqrt -> true | Neg | Abs | Trunc -> false in
      let lat = if sqrt_ then 33 else 3 in
      fun rt ->
        let ta = ca rt in
        let tok = rt.tok in
        tick rt;
        let t = unop rt op ta rt.iv rt.fv.(0) in
        rt.tok <-
          (if t = tfloat || sqrt_ then rt.emit.e_fp ~lat tok (-1)
           else rt.emit.e_int tok (-1));
        t
  | Binop (op, a, b) ->
      let ca = compile_expr env a in
      let cb = compile_expr env b in
      let lat = fp_latency op in
      fun rt ->
        let ta = ca rt in
        let ia = rt.iv and fa = rt.fv.(0) and toka = rt.tok in
        let tb = cb rt in
        let tokb = rt.tok in
        tick rt;
        let t = binop rt op ta ia fa tb rt.iv rt.fv.(0) in
        rt.tok <-
          (if ta = tfloat || tb = tfloat then rt.emit.e_fp ~lat toka tokb
           else rt.emit.e_int toka tokb);
        t

(* Loads emit the same operation sequence as the interpreter: direct and
   indirect references pay one address-generation integer op, field
   references use register+offset addressing (no separate address op). *)
and compile_load env (r : mem_ref) : rt -> int =
  let ref_id = r.ref_id in
  match r.target with
  | Direct { array; index } ->
      let ci = compile_affine env index in
      let h = resolve Data.handle env array in
      fun rt ->
        let i = ci rt in
        let a = use h in
        let addr = Data.h_addr a i in
        tick rt;
        let at = rt.emit.e_int (-1) (-1) in
        tick rt;
        rt.tok <- rt.emit.e_load ~ref_id ~addr at (-1);
        load rt (Data.h_slots a) (Data.h_slot a i)
  | Indirect { array; index } ->
      let ce = compile_expr env index in
      let h = resolve Data.handle env array in
      fun rt ->
        let i = to_int rt (ce rt) in
        let ti = rt.tok in
        let a = use h in
        let addr = Data.h_addr a i in
        tick rt;
        let at = rt.emit.e_int ti (-1) in
        tick rt;
        rt.tok <- rt.emit.e_load ~ref_id ~addr at (-1);
        load rt (Data.h_slots a) (Data.h_slot a i)
  | Field { region; ptr; field } ->
      let cp = compile_expr env ptr in
      let rh = resolve Data.rhandle env region in
      fun rt ->
        let p = to_int rt (cp rt) in
        let tp = rt.tok in
        let r = use rh in
        let k = Data.rh_slot r ~ptr:p ~field in
        tick rt;
        rt.tok <- rt.emit.e_load ~ref_id ~addr:(field_addr p field) tp (-1);
        load rt (Data.rh_slots r) k

let rec compile_stmt env stmt : rt -> unit =
  match stmt with
  | Assign (Lscalar v, e) ->
      let id = svar_id env v in
      let ce = compile_expr env e in
      fun rt ->
        let t = ce rt in
        if t = tfloat then rt.sflt.(id) <- rt.fv.(0) else rt.sint.(id) <- rt.iv;
        rt.stok.(id) <- rt.tok;
        rt.stag.(id) <- t
  | Assign (Lmem r, e) -> compile_store env r (compile_expr env e)
  | Use e ->
      let ce = compile_expr env e in
      fun rt -> ignore (ce rt)
  | Barrier -> fun rt -> rt.emit.e_barrier ()
  | Prefetch r -> compile_prefetch env r
  | If (cond, then_, else_) ->
      let cc = compile_expr env cond in
      let ct = compile_stmts env then_ in
      let ce = compile_stmts env else_ in
      fun rt ->
        let c = to_int rt (cc rt) in
        rt.emit.e_branch rt.tok (-1);
        if c <> 0 then ct rt else ce rt
  | Loop l -> compile_loop env l
  | Chase c -> compile_chase env c

and compile_stmts env stmts : rt -> unit =
  match List.map (compile_stmt env) stmts with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | fs ->
      let arr = Array.of_list fs in
      fun rt ->
        for k = 0 to Array.length arr - 1 do
          arr.(k) rt
        done

(* [ce] computes the stored value; it runs before the address, and its
   payload waits in locals while the index expression runs. *)
and compile_store env (r : mem_ref) ce : rt -> unit =
  let ref_id = r.ref_id in
  match r.target with
  | Direct { array; index } ->
      let ci = compile_affine env index in
      let h = resolve Data.handle env array in
      fun rt ->
        let t = ce rt in
        let iv = rt.iv and fv = rt.fv.(0) and vtok = rt.tok in
        let i = ci rt in
        tick rt;
        let at = rt.emit.e_int (-1) (-1) in
        let a = use h in
        let addr = Data.h_addr a i in
        tick rt;
        ignore (rt.emit.e_store ~ref_id ~addr vtok at);
        store (Data.h_slots a) (Data.h_slot a i) t iv fv
  | Indirect { array; index } ->
      let cx = compile_expr env index in
      let h = resolve Data.handle env array in
      fun rt ->
        let t = ce rt in
        let iv = rt.iv and fv = rt.fv.(0) and vtok = rt.tok in
        let i = to_int rt (cx rt) in
        let ti = rt.tok in
        tick rt;
        let at = rt.emit.e_int ti (-1) in
        let a = use h in
        let addr = Data.h_addr a i in
        tick rt;
        ignore (rt.emit.e_store ~ref_id ~addr vtok at);
        store (Data.h_slots a) (Data.h_slot a i) t iv fv
  | Field { region; ptr; field } ->
      let cp = compile_expr env ptr in
      let rh = resolve Data.rhandle env region in
      fun rt ->
        let t = ce rt in
        let iv = rt.iv and fv = rt.fv.(0) and vtok = rt.tok in
        let p = to_int rt (cp rt) in
        let tp = rt.tok in
        let r = use rh in
        let k = Data.rh_slot r ~ptr:p ~field in
        tick rt;
        ignore (rt.emit.e_store ~ref_id ~addr:(field_addr p field) vtok tp);
        store (Data.rh_slots r) k t iv fv

(* A prefetch through a null or dangling pointer (or an unbound variable)
   is silently dropped, as hardware drops hint prefetches; the address
   computation's own operations still count when they were emitted. *)
and compile_prefetch env (r : mem_ref) : rt -> unit =
  let ref_id = r.ref_id in
  (* the address, its token left in [rt.tok] *)
  let addr : rt -> int =
    match r.target with
    | Direct { array; index } ->
        let ci = compile_affine env index in
        let h = resolve Data.handle env array in
        fun rt ->
          let i = ci rt in
          let addr = Data.h_addr (use h) i in
          tick rt;
          rt.tok <- rt.emit.e_int (-1) (-1);
          addr
    | Indirect { array; index } ->
        let ce = compile_expr env index in
        let h = resolve Data.handle env array in
        fun rt ->
          let i = to_int rt (ce rt) in
          let ti = rt.tok in
          let addr = Data.h_addr (use h) i in
          tick rt;
          rt.tok <- rt.emit.e_int ti (-1);
          addr
    | Field { region; ptr; field } ->
        let cp = compile_expr env ptr in
        let rh = resolve Data.rhandle env region in
        fun rt ->
          let p = to_int rt (cp rt) in
          Data.rh_addr (use rh) ~ptr:p ~field
  in
  fun rt ->
    match addr rt with
    | addr -> rt.emit.e_prefetch ~ref_id ~addr rt.tok (-1)
    | exception Invalid_argument _ -> ()

and compile_loop env (l : loop) : rt -> unit =
  let clo = compile_affine env l.lo in
  let chi = compile_affine env l.hi in
  let vid, body_env = bind_ivar env l.var in
  let cbody = compile_stmts body_env l.body in
  let step = l.step in
  let parallel = l.parallel in
  fun rt ->
    let lo = clo rt and hi = chi rt in
    let distribute = parallel && rt.nprocs > 1 && rt.depth_parallel = 0 in
    let total = if hi > lo then (hi - lo + step - 1) / step else 0 in
    if distribute then rt.depth_parallel <- rt.depth_parallel + 1;
    let iter_num = ref 0 in
    let i = ref lo in
    while !i < hi do
      (* balanced block distribution: every processor gets ⌊total/n⌋ or
         ⌈total/n⌉ consecutive iterations *)
      if distribute && total > 0 then
        rt.emit.e_set_proc (Int.min (rt.nprocs - 1) (!iter_num * rt.nprocs / total));
      rt.ivar.(vid) <- !i;
      cbody rt;
      (* loop overhead: induction increment + backward branch *)
      tick rt;
      let t = rt.emit.e_int (-1) (-1) in
      rt.emit.e_branch t (-1);
      incr iter_num;
      i := !i + step
    done;
    if distribute then begin
      rt.depth_parallel <- rt.depth_parallel - 1;
      rt.emit.e_set_proc 0;
      rt.emit.e_barrier ()
    end

and compile_chase env (c : chase) : rt -> unit =
  let cinit = compile_expr env c.init in
  let climit = Option.map (compile_affine env) c.count in
  let vid = svar_id env c.cvar in
  let cbody = compile_stmts env c.cbody in
  let rh = resolve Data.rhandle env c.cregion in
  let next_field = c.next_field in
  let next_ref_id = c.next_ref_id in
  fun rt ->
    let p = ref (to_int rt (cinit rt)) in
    let ptok = ref rt.tok in
    let limit = match climit with Some f -> f rt | None -> max_int in
    let saved_t = rt.stag.(vid)
    and saved_i = rt.sint.(vid)
    and saved_f = rt.sflt.(vid)
    and saved_tok = rt.stok.(vid) in
    let n = ref 0 in
    while !p <> 0 && !n < limit do
      rt.stag.(vid) <- tptr;
      rt.sint.(vid) <- !p;
      rt.stok.(vid) <- !ptok;
      cbody rt;
      (* advance: p = p->next — a load whose address depends on p *)
      let r = use rh in
      let k = Data.rh_slot r ~ptr:!p ~field:next_field in
      tick rt;
      let tok =
        rt.emit.e_load ~ref_id:next_ref_id
          ~addr:(field_addr !p next_field)
          !ptok (-1)
      in
      let next = to_int rt (load rt (Data.rh_slots r) k) in
      rt.emit.e_branch tok (-1);
      p := next;
      ptok := tok;
      incr n
    done;
    rt.stag.(vid) <- saved_t;
    rt.sint.(vid) <- saved_i;
    rt.sflt.(vid) <- saved_f;
    rt.stok.(vid) <- saved_tok

type state = { scalars : (string * value) list; ops : int }

let start = { scalars = []; ops = 0 }

let run_from ?(emit = null_emitter) ?(nprocs = 1) ?(max_ops = 200_000_000)
    (st : state) (p : program) data =
  let env = { data; ivars = Smap.empty; n_ivars = ref 0; svar_ids = Hashtbl.create 16 } in
  (* the parameters take the first index slots, in order, and stay in
     scope for the whole body *)
  let env = List.fold_left (fun env (name, _) -> snd (bind_ivar env name)) env p.params in
  let scalar_ids = List.map (fun (name, v) -> (svar_id env name, v)) st.scalars in
  let cbody = compile_stmts env p.body in
  let ni = Int.max 1 !(env.n_ivars) and ns = Int.max 1 (Hashtbl.length env.svar_ids) in
  let rt =
    {
      emit;
      nprocs;
      max_ops;
      ops = st.ops;
      iv = 0;
      fv = [| 0.0 |];
      tok = -1;
      ivar = Array.make ni 0;
      stag = Array.make ns (-1);
      sint = Array.make ns 0;
      sflt = Array.make ns 0.0;
      stok = Array.make ns (-1);
      depth_parallel = 0;
    }
  in
  List.iteri (fun id (_, v) -> rt.ivar.(id) <- v) p.params;
  (* a resumed scalar's producer ran in the earlier run: no token *)
  List.iter
    (fun (id, v) ->
      match v with
      | Vfloat x ->
          rt.stag.(id) <- tfloat;
          rt.sflt.(id) <- x
      | Vint n ->
          rt.stag.(id) <- tint;
          rt.sint.(id) <- n
      | Vptr a ->
          rt.stag.(id) <- tptr;
          rt.sint.(id) <- a)
    scalar_ids;
  cbody rt;
  let value id =
    let t = rt.stag.(id) in
    if t = tfloat then Vfloat rt.sflt.(id)
    else if t = tint then Vint rt.sint.(id)
    else Vptr rt.sint.(id)
  in
  {
    scalars =
      Hashtbl.fold
        (fun name id acc -> if rt.stag.(id) >= 0 then (name, value id) :: acc else acc)
        env.svar_ids [];
    ops = rt.ops;
  }

let run ?emit ?nprocs ?max_ops p data =
  ignore (run_from ?emit ?nprocs ?max_ops start p data)

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

(* Numeric coercions: the value domain is deliberately loose — synthetic
   workloads index arrays with computed data, so we coerce rather than
   fail. Division by zero yields 0 to keep synthetic inputs total. *)

let to_float = function
  | Vfloat x -> x
  | Vint i -> float_of_int i
  | Vptr a -> float_of_int a

let to_int = function
  | Vint i -> i
  | Vfloat x -> int_of_float x
  | Vptr a -> a

let is_float = function Vfloat _ -> true | Vint _ | Vptr _ -> false

let apply_unop op v =
  match op with
  | Neg -> if is_float v then Vfloat (-.to_float v) else Vint (-to_int v)
  | Abs -> if is_float v then Vfloat (Float.abs (to_float v)) else Vint (abs (to_int v))
  | Sqrt -> Vfloat (sqrt (Float.abs (to_float v)))
  | Trunc -> Vint (to_int v)

(* Binary operators: [binop] picks one per [Binop] node at compile time.
   Each matches the float/float and int/int cases first; a float operand
   makes the operation a float one, otherwise pointers count as ints. *)

let add a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (x +. y)
  | Vint x, Vint y -> Vint (x + y)
  (* pointer arithmetic stays a pointer *)
  | Vptr p, v | v, Vptr p -> Vptr (p + to_int v)
  | _ -> Vfloat (to_float a +. to_float b)

let sub a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (x -. y)
  | Vint x, Vint y -> Vint (x - y)
  | Vfloat _, _ | _, Vfloat _ -> Vfloat (to_float a -. to_float b)
  | _ -> Vint (to_int a - to_int b)

let mul a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (x *. y)
  | Vint x, Vint y -> Vint (x * y)
  | Vfloat _, _ | _, Vfloat _ -> Vfloat (to_float a *. to_float b)
  | _ -> Vint (to_int a * to_int b)

let fdiv x d = if d = 0.0 then 0.0 else x /. d
let idiv x d = if d = 0 then 0 else x / d

let div a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (fdiv x y)
  | Vint x, Vint y -> Vint (idiv x y)
  | Vfloat _, _ | _, Vfloat _ -> Vfloat (fdiv (to_float a) (to_float b))
  | _ -> Vint (idiv (to_int a) (to_int b))

let fmod x d = if d = 0.0 then 0.0 else Float.rem x d
let imod x d = if d = 0 then 0 else x mod d

let mod_ a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (fmod x y)
  | Vint x, Vint y -> Vint (imod x y)
  | Vfloat _, _ | _, Vfloat _ -> Vfloat (fmod (to_float a) (to_float b))
  | _ -> Vint (imod (to_int a) (to_int b))

let imin (x : int) y = if x <= y then x else y
let imax (x : int) y = if x >= y then x else y

let min_ a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (Float.min x y)
  | Vint x, Vint y -> Vint (imin x y)
  | Vfloat _, _ | _, Vfloat _ -> Vfloat (Float.min (to_float a) (to_float b))
  | _ -> Vint (imin (to_int a) (to_int b))

let max_ a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Vfloat (Float.max x y)
  | Vint x, Vint y -> Vint (imax x y)
  | Vfloat _, _ | _, Vfloat _ -> Vfloat (Float.max (to_float a) (to_float b))
  | _ -> Vint (imax (to_int a) (to_int b))

(* comparisons yield [Vint 1] or [Vint 0]; float ones follow IEEE, so a
   NaN compares false *)
let truth b = Vint (if b then 1 else 0)

let lt a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> truth (x < y)
  | Vint x, Vint y -> truth (x < y)
  | Vfloat _, _ | _, Vfloat _ -> truth (to_float a < to_float b)
  | _ -> truth (to_int a < to_int b)

let le a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> truth (x <= y)
  | Vint x, Vint y -> truth (x <= y)
  | Vfloat _, _ | _, Vfloat _ -> truth (to_float a <= to_float b)
  | _ -> truth (to_int a <= to_int b)

let eq a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> truth (x = y)
  | Vint x, Vint y -> truth (x = y)
  | Vfloat _, _ | _, Vfloat _ -> truth (to_float a = to_float b)
  | _ -> truth (to_int a = to_int b)

let binop = function
  | Add -> add
  | Sub -> sub
  | Mul -> mul
  | Div -> div
  | Mod -> mod_
  | Min -> min_
  | Max -> max_
  | Lt -> lt
  | Le -> le
  | Eq -> eq

(* ------------------------------------------------------------------ *)
(* The executor compiles the (small, static) AST to a tree of closures
   once per run, then drives the closures through the (large, dynamic)
   iteration space. Compilation interns every loop index and scalar name
   to an integer slot, so the per-operation cost has no string hashing,
   no environment tuple allocation and no data-store name lookups — all
   of which dominated the interpreter this replaces. *)

(* Runtime state. Variables live in slot-indexed arrays; [*_bound] tracks
   dynamic scope (a slot exists for every name in the program, bound-ness
   changes as loops enter and leave). [tok] is the dependence token of the
   most recently evaluated expression — an out-parameter, replacing a
   (value, token) tuple allocated per expression node. *)
type rt = {
  emit : emitter;
  data : Data.t;
  nprocs : int;
  max_ops : int;
  mutable ops : int;
  ivar : int array;  (* loop indices and symbolic parameters *)
  ivar_bound : bool array;
  ivar_name : string array;
  sval : value array;  (* scalar variables: value and producing token *)
  stok : int array;
  sbound : bool array;
  svar_name : string array;
  mutable depth_parallel : int;  (* > 0 while inside a parallel loop *)
  mutable tok : int;
}

let tick rt =
  rt.ops <- rt.ops + 1;
  if rt.ops > rt.max_ops then raise Limit_exceeded

let ivar_get rt id =
  if rt.ivar_bound.(id) then rt.ivar.(id)
  else
    invalid_arg
      (Printf.sprintf "Exec: unbound index variable %s" rt.ivar_name.(id))

(* Compile-time environment: name -> slot interning tables. *)
type cenv = {
  ivar_ids : (string, int) Hashtbl.t;
  mutable n_ivars : int;
  svar_ids : (string, int) Hashtbl.t;
  mutable n_svars : int;
}

let ivar_id env v =
  match Hashtbl.find_opt env.ivar_ids v with
  | Some id -> id
  | None ->
      let id = env.n_ivars in
      Hashtbl.replace env.ivar_ids v id;
      env.n_ivars <- id + 1;
      id

let svar_id env v =
  match Hashtbl.find_opt env.svar_ids v with
  | Some id -> id
  | None ->
      let id = env.n_svars in
      Hashtbl.replace env.svar_ids v id;
      env.n_svars <- id + 1;
      id

(* Affine forms are evaluated in Smap (= sorted-name) term order, like the
   interpreter did, so an unbound-variable error surfaces on the same
   term. The common 0/1/2-term shapes get dedicated closures. *)
let compile_affine env a =
  let c0 = Affine.constant a in
  let terms =
    List.map (fun v -> (ivar_id env v, Affine.coeff a v)) (Affine.vars a)
  in
  match terms with
  | [] -> fun _ -> c0
  | [ (s, c) ] -> fun rt -> c0 + (c * ivar_get rt s)
  | [ (s1, c1); (s2, c2) ] ->
      fun rt -> c0 + (c1 * ivar_get rt s1) + (c2 * ivar_get rt s2)
  | l ->
      let arr = Array.of_list l in
      fun rt ->
        Array.fold_left (fun acc (s, c) -> acc + (c * ivar_get rt s)) c0 arr

(* Array / region handles are resolved on first use and cached for the
   rest of the run (the closure tree is rebuilt per run, so a cache never
   outlives its data store). First-use resolution keeps the interpreter's
   behaviour of raising on an unknown name only if the reference is
   actually executed. *)
let cached_handle array =
  let h = ref None in
  fun rt ->
    match !h with
    | Some a -> a
    | None ->
        let a = Data.handle rt.data array in
        h := Some a;
        a

let cached_rhandle region =
  let h = ref None in
  fun rt ->
    match !h with
    | Some r -> r
    | None ->
        let r = Data.rhandle rt.data region in
        h := Some r;
        r

(* Compile an expression to a closure returning its value; the producing
   token is left in [rt.tok]. *)
let rec compile_expr env e : rt -> value =
  match e with
  | Const v ->
      fun rt ->
        rt.tok <- -1;
        v
  | Ivar v ->
      let id = ivar_id env v in
      fun rt ->
        rt.tok <- -1;
        Vint (ivar_get rt id)
  | Scalar v ->
      let id = svar_id env v in
      fun rt ->
        if rt.sbound.(id) then begin
          rt.tok <- rt.stok.(id);
          rt.sval.(id)
        end
        else
          invalid_arg
            (Printf.sprintf "Exec: unbound scalar %s" rt.svar_name.(id))
  | Load r -> compile_load env r
  | Unop (op, a) ->
      let ca = compile_expr env a in
      let sqrt_ = op = Sqrt in
      let lat = if sqrt_ then 33 else 3 in
      fun rt ->
        let va = ca rt in
        let ta = rt.tok in
        tick rt;
        let v = apply_unop op va in
        rt.tok <-
          (if is_float v || sqrt_ then rt.emit.e_fp ~lat ta (-1)
           else rt.emit.e_int ta (-1));
        v
  | Binop (op, a, b) ->
      let ca = compile_expr env a in
      let cb = compile_expr env b in
      let lat = fp_latency op in
      let f = binop op in
      fun rt ->
        let va = ca rt in
        let ta = rt.tok in
        let vb = cb rt in
        let tb = rt.tok in
        tick rt;
        let v = f va vb in
        rt.tok <-
          (if is_float va || is_float vb then rt.emit.e_fp ~lat ta tb
           else rt.emit.e_int ta tb);
        v

(* Loads emit the same operation sequence as the interpreter: direct and
   indirect references pay one address-generation integer op, field
   references use register+offset addressing (no separate address op). *)
and compile_load env (r : mem_ref) : rt -> value =
  let ref_id = r.ref_id in
  match r.target with
  | Direct { array; index } ->
      let ci = compile_affine env index in
      let h = cached_handle array in
      fun rt ->
        let i = ci rt in
        let a = h rt in
        let addr = Data.h_addr a i in
        tick rt;
        let at = rt.emit.e_int (-1) (-1) in
        tick rt;
        rt.tok <- rt.emit.e_load ~ref_id ~addr at (-1);
        Data.h_get a i
  | Indirect { array; index } ->
      let ce = compile_expr env index in
      let h = cached_handle array in
      fun rt ->
        let vi = ce rt in
        let ti = rt.tok in
        let i = to_int vi in
        let a = h rt in
        let addr = Data.h_addr a i in
        tick rt;
        let at = rt.emit.e_int ti (-1) in
        tick rt;
        rt.tok <- rt.emit.e_load ~ref_id ~addr at (-1);
        Data.h_get a i
  | Field { region; ptr; field } ->
      let cp = compile_expr env ptr in
      let rh = cached_rhandle region in
      fun rt ->
        let vp = cp rt in
        let tp = rt.tok in
        let p = to_int vp in
        let r = rh rt in
        let addr = Data.rh_addr r ~ptr:p ~field in
        tick rt;
        rt.tok <- rt.emit.e_load ~ref_id ~addr tp (-1);
        Data.rh_get r ~ptr:p ~field

let rec compile_stmt env stmt : rt -> unit =
  match stmt with
  | Assign (Lscalar v, e) ->
      let id = svar_id env v in
      let ce = compile_expr env e in
      fun rt ->
        let value = ce rt in
        rt.sval.(id) <- value;
        rt.stok.(id) <- rt.tok;
        rt.sbound.(id) <- true
  | Assign (Lmem r, e) ->
      let ce = compile_expr env e in
      let cs = compile_store env r in
      fun rt ->
        let value = ce rt in
        let vtok = rt.tok in
        cs rt value vtok
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
        let v = cc rt in
        rt.emit.e_branch rt.tok (-1);
        if to_int v <> 0 then ct rt else ce rt
  | Loop l -> compile_loop env l
  | Chase c -> compile_chase env c

and compile_stmts env stmts : rt -> unit =
  match List.map (compile_stmt env) stmts with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | fs ->
      let arr = Array.of_list fs in
      fun rt -> Array.iter (fun f -> f rt) arr

and compile_store env (r : mem_ref) : rt -> value -> int -> unit =
  let ref_id = r.ref_id in
  match r.target with
  | Direct { array; index } ->
      let ci = compile_affine env index in
      let h = cached_handle array in
      fun rt value vtok ->
        let i = ci rt in
        tick rt;
        let at = rt.emit.e_int (-1) (-1) in
        let a = h rt in
        let addr = Data.h_addr a i in
        tick rt;
        ignore (rt.emit.e_store ~ref_id ~addr vtok at);
        Data.h_set a i value
  | Indirect { array; index } ->
      let ce = compile_expr env index in
      let h = cached_handle array in
      fun rt value vtok ->
        let vi = ce rt in
        let ti = rt.tok in
        let i = to_int vi in
        tick rt;
        let at = rt.emit.e_int ti (-1) in
        let a = h rt in
        let addr = Data.h_addr a i in
        tick rt;
        ignore (rt.emit.e_store ~ref_id ~addr vtok at);
        Data.h_set a i value
  | Field { region; ptr; field } ->
      let cp = compile_expr env ptr in
      let rh = cached_rhandle region in
      fun rt value vtok ->
        let vp = cp rt in
        let tp = rt.tok in
        let p = to_int vp in
        let r = rh rt in
        let addr = Data.rh_addr r ~ptr:p ~field in
        tick rt;
        ignore (rt.emit.e_store ~ref_id ~addr vtok tp);
        Data.rh_set r ~ptr:p ~field value

(* A prefetch through a null or dangling pointer (or an unbound variable)
   is silently dropped, as hardware drops hint prefetches; the address
   computation's own operations still count when they were emitted. *)
and compile_prefetch env (r : mem_ref) : rt -> unit =
  let ref_id = r.ref_id in
  let addr_tok =
    match r.target with
    | Direct { array; index } ->
        let ci = compile_affine env index in
        let h = cached_handle array in
        fun rt ->
          let i = ci rt in
          let a = h rt in
          let addr = Data.h_addr a i in
          tick rt;
          (addr, rt.emit.e_int (-1) (-1))
    | Indirect { array; index } ->
        let ce = compile_expr env index in
        let h = cached_handle array in
        fun rt ->
          let vi = ce rt in
          let ti = rt.tok in
          let i = to_int vi in
          let a = h rt in
          let addr = Data.h_addr a i in
          tick rt;
          (addr, rt.emit.e_int ti (-1))
    | Field { region; ptr; field } ->
        let cp = compile_expr env ptr in
        let rh = cached_rhandle region in
        fun rt ->
          let vp = cp rt in
          let tp = rt.tok in
          let p = to_int vp in
          (Data.rh_addr (rh rt) ~ptr:p ~field, tp)
  in
  fun rt ->
    match addr_tok rt with
    | addr, tok -> rt.emit.e_prefetch ~ref_id ~addr tok (-1)
    | exception Invalid_argument _ -> ()

and compile_loop env (l : loop) : rt -> unit =
  let clo = compile_affine env l.lo in
  let chi = compile_affine env l.hi in
  let vid = ivar_id env l.var in
  let cbody = compile_stmts env l.body in
  let step = l.step in
  let parallel = l.parallel in
  fun rt ->
    let lo = clo rt and hi = chi rt in
    let distribute = parallel && rt.nprocs > 1 && rt.depth_parallel = 0 in
    let total = if hi > lo then (hi - lo + step - 1) / step else 0 in
    if distribute then rt.depth_parallel <- rt.depth_parallel + 1;
    let saved_v = rt.ivar.(vid) and saved_b = rt.ivar_bound.(vid) in
    rt.ivar_bound.(vid) <- true;
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
    rt.ivar.(vid) <- saved_v;
    rt.ivar_bound.(vid) <- saved_b;
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
  let rh = cached_rhandle c.cregion in
  let next_field = c.next_field in
  let next_ref_id = c.next_ref_id in
  fun rt ->
    let v0 = cinit rt in
    let t0 = rt.tok in
    let limit = match climit with Some f -> Some (f rt) | None -> None in
    let saved_v = rt.sval.(vid)
    and saved_t = rt.stok.(vid)
    and saved_b = rt.sbound.(vid) in
    let p = ref (to_int v0) in
    let ptok = ref t0 in
    let n = ref 0 in
    let continue () =
      !p <> 0 && match limit with Some k -> !n < k | None -> true
    in
    while continue () do
      rt.sval.(vid) <- Vptr !p;
      rt.stok.(vid) <- !ptok;
      rt.sbound.(vid) <- true;
      cbody rt;
      (* advance: p = p->next — a load whose address depends on p *)
      let r = rh rt in
      let addr = Data.rh_addr r ~ptr:!p ~field:next_field in
      tick rt;
      let tok = rt.emit.e_load ~ref_id:next_ref_id ~addr !ptok (-1) in
      let next = Data.rh_get r ~ptr:!p ~field:next_field in
      rt.emit.e_branch tok (-1);
      p := to_int next;
      ptok := tok;
      incr n
    done;
    rt.sval.(vid) <- saved_v;
    rt.stok.(vid) <- saved_t;
    rt.sbound.(vid) <- saved_b

type state = { scalars : (string * value) list; ops : int }

let start = { scalars = []; ops = 0 }

let run_from ?(emit = null_emitter) ?(nprocs = 1) ?(max_ops = 200_000_000)
    (st : state) (p : program) data =
  let env =
    {
      ivar_ids = Hashtbl.create 16;
      n_ivars = 0;
      svar_ids = Hashtbl.create 16;
      n_svars = 0;
    }
  in
  (* intern parameters first so their slots exist before the body runs *)
  let param_ids = List.map (fun (name, v) -> (ivar_id env name, v)) p.params in
  let scalar_ids = List.map (fun (name, v) -> (svar_id env name, v)) st.scalars in
  let cbody = compile_stmts env p.body in
  let ni = Int.max 1 env.n_ivars and ns = Int.max 1 env.n_svars in
  let ivar_name = Array.make ni "" in
  Hashtbl.iter (fun k id -> ivar_name.(id) <- k) env.ivar_ids;
  let svar_name = Array.make ns "" in
  Hashtbl.iter (fun k id -> svar_name.(id) <- k) env.svar_ids;
  let rt =
    {
      emit;
      data;
      nprocs;
      max_ops;
      ops = st.ops;
      ivar = Array.make ni 0;
      ivar_bound = Array.make ni false;
      ivar_name;
      sval = Array.make ns (Vint 0);
      stok = Array.make ns (-1);
      sbound = Array.make ns false;
      svar_name;
      depth_parallel = 0;
      tok = -1;
    }
  in
  List.iter
    (fun (id, v) ->
      rt.ivar.(id) <- v;
      rt.ivar_bound.(id) <- true)
    param_ids;
  (* a resumed scalar's producer ran in the earlier run: no token *)
  List.iter
    (fun (id, v) ->
      rt.sval.(id) <- v;
      rt.sbound.(id) <- true)
    scalar_ids;
  cbody rt;
  {
    scalars =
      Hashtbl.fold
        (fun name id acc -> if rt.sbound.(id) then (name, rt.sval.(id)) :: acc else acc)
        env.svar_ids [];
    ops = rt.ops;
  }

let run ?emit ?nprocs ?max_ops p data =
  ignore (run_from ?emit ?nprocs ?max_ops start p data)

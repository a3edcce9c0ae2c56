open Memclust_ir
open Ast

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------ Affine ----------------------------- *)

let affine_gen =
  QCheck.Gen.(
    let var = oneofl [ "i"; "j"; "k" ] in
    let term = pair var (int_range (-8) 8) in
    map2 (fun terms c -> Affine.of_terms terms c) (list_size (0 -- 4) term)
      (int_range (-100) 100))

let affine_arb = QCheck.make affine_gen ~print:Affine.to_string

let env v = match v with "i" -> 3 | "j" -> 5 | "k" -> -2 | _ -> 0

let prop_affine_add =
  QCheck.Test.make ~name:"eval (a+b) = eval a + eval b" ~count:300
    QCheck.(pair affine_arb affine_arb)
    (fun (a, b) -> Affine.eval env (Affine.add a b) = Affine.eval env a + Affine.eval env b)

let prop_affine_scale =
  QCheck.Test.make ~name:"eval (k*a) = k * eval a" ~count:300
    QCheck.(pair (int_range (-10) 10) affine_arb)
    (fun (k, a) -> Affine.eval env (Affine.scale k a) = k * Affine.eval env a)

let prop_affine_sub_self =
  QCheck.Test.make ~name:"a - a = 0" ~count:300 affine_arb (fun a ->
      Affine.is_const (Affine.sub a a) && Affine.constant (Affine.sub a a) = 0)

let prop_affine_shift =
  QCheck.Test.make ~name:"shift matches eval with shifted env" ~count:300
    QCheck.(pair affine_arb (int_range (-10) 10))
    (fun (a, k) ->
      let shifted = Affine.shift a "i" k in
      let env' v = if v = "i" then env "i" + k else env v in
      Affine.eval env shifted = Affine.eval env' a)

let prop_affine_subst =
  QCheck.Test.make ~name:"subst matches eval composition" ~count:300
    QCheck.(pair affine_arb affine_arb)
    (fun (a, b) ->
      let s = Affine.subst a "j" b in
      let env' v = if v = "j" then Affine.eval env b else env v in
      Affine.eval env s = Affine.eval env' a)

let test_affine_basics () =
  let a = Affine.of_terms [ ("i", 2); ("j", 0); ("i", 1) ] 5 in
  Alcotest.(check int) "coeff merged" 3 (Affine.coeff a "i");
  Alcotest.(check int) "zero coeff dropped" 0 (Affine.coeff a "j");
  Alcotest.(check (list string)) "vars" [ "i" ] (Affine.vars a);
  Alcotest.(check int) "const" 5 (Affine.constant a);
  Alcotest.(check bool) "not const" false (Affine.is_const a);
  Alcotest.(check bool) "const detect" true (Affine.is_const (Affine.const 7))

let test_affine_pp () =
  let a = Affine.of_terms [ ("i", 1); ("j", -2) ] 3 in
  Alcotest.(check string) "pp" "i - 2*j + 3" (Affine.to_string a);
  Alcotest.(check string) "pp const" "-4" (Affine.to_string (Affine.const (-4)))

(* --------------------------- Program ------------------------------- *)

let simple_program () =
  let open Builder in
  program "t"
    ~arrays:[ array_decl "a" 64; array_decl "b" 64 ]
    ~regions:[ region_decl ~node_size:32 "r" 8 ]
    [
      loop "j" (cst 0) (cst 8)
        [
          loop "i" (cst 0) (cst 8)
            [ store (aref "a" (idx2 ~cols:8 (ix "j") (ix "i"))) (arr "b" (ix "i")) ];
        ];
      chase "p" ~init:(ld (aref "a" (cst 0))) ~region:"r" ~next:0
        [ use (ld (fref "r" (sc "p") 1)) ];
    ]

let test_renumber_unique () =
  let p = simple_program () in
  let ids = List.map (fun (r : Program.ref_info) -> r.ref_.ref_id) (Program.refs p) in
  let chase_ids = List.map (fun (c : chase) -> c.next_ref_id) (Program.chases p) in
  let all = ids @ chase_ids in
  Alcotest.(check bool) "all positive" true (List.for_all (fun i -> i > 0) all);
  Alcotest.(check int) "unique ids" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "max id" (List.fold_left max 0 all) (Program.max_ref_id p)

let test_refs_context () =
  let p = simple_program () in
  let refs = Program.refs p in
  (* the store to a is nested in loops j then i *)
  let store_info =
    List.find (fun (r : Program.ref_info) -> r.is_store) refs
  in
  Alcotest.(check (list string)) "loop path" [ "j"; "i" ]
    (List.map (fun (l : loop) -> l.var) store_info.loop_path);
  (* the field ref is inside the chase *)
  let field_info =
    List.find
      (fun (r : Program.ref_info) ->
        match r.ref_.target with Field _ -> true | _ -> false)
      refs
  in
  Alcotest.(check int) "chase path" 1 (List.length field_info.chase_path)

let test_validate_ok () =
  match Program.validate (simple_program ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let expect_invalid p =
  match Program.validate p with
  | Ok () -> Alcotest.fail "expected validation error"
  | Error _ -> ()

let test_validate_undeclared_array () =
  let open Builder in
  expect_invalid
    (program "bad" ~arrays:[] [ use (arr "nope" (cst 0)) ])

let test_validate_dup_loop_var () =
  let open Builder in
  expect_invalid
    (program "bad"
       ~arrays:[ array_decl "a" 8 ]
       [ loop "i" (cst 0) (cst 2) [ loop "i" (cst 0) (cst 2) [ use (arr "a" (ix "i")) ] ] ])

let test_validate_bad_field () =
  let open Builder in
  expect_invalid
    (program "bad"
       ~regions:[ region_decl ~node_size:16 "r" 4 ]
       [ use (ld (fref "r" (Const (Vptr 0)) 5)) ])

let test_validate_bad_step () =
  let open Builder in
  expect_invalid
    (program "bad"
       ~arrays:[ array_decl "a" 8 ]
       [ loop ~step:0 "i" (cst 0) (cst 2) [ use (arr "a" (ix "i")) ] ])

let test_scalars_written () =
  let open Builder in
  let stmts =
    [
      assign "x" (flt 1.0);
      if_ (sc "x" < flt 2.0) [ assign "y" (flt 0.0) ] [ assign "x" (flt 3.0) ];
    ]
  in
  Alcotest.(check (list string)) "written" [ "x"; "y" ] (Program.scalars_written stmts)

(* ----------------------------- Measure ----------------------------- *)

let test_measure () =
  let open Builder in
  (* store (addr-gen + store) + load (addr + load) + add = 5, +2 loop overhead *)
  let body = [ store (aref "a" (ix "i")) (arr "a" (ix "i") + flt 1.0) ] in
  Alcotest.(check int) "body ops" 7 (Measure.body_ops body);
  Alcotest.(check int) "expr ops" 3 (Measure.expr_ops (arr "a" (ix "i") + flt 1.0))

(* ------------------------------- Data ------------------------------ *)

let test_data_layout () =
  let p = simple_program () in
  let d = Data.create p in
  Alcotest.(check int) "aligned a" 0 (Data.array_base d "a" mod 64);
  Alcotest.(check int) "aligned b" 0 (Data.array_base d "b" mod 64);
  Alcotest.(check bool) "disjoint" true
    (Data.array_base d "b" >= Data.array_base d "a" + Data.array_bytes d "a");
  Alcotest.(check int) "addr_of" (Data.array_base d "a" + 24) (Data.addr_of d "a" 3)

let test_data_values () =
  let p = simple_program () in
  let d = Data.create p in
  Data.set d "a" 5 (Vfloat 2.5);
  (match Data.get d "a" 5 with
  | Vfloat v -> Alcotest.(check (float 0.0)) "roundtrip" 2.5 v
  | _ -> Alcotest.fail "wrong kind");
  (* clamping *)
  Data.set d "a" 1000 (Vfloat 9.0);
  (match Data.get d "a" 63 with
  | Vfloat v -> Alcotest.(check (float 0.0)) "clamped write" 9.0 v
  | _ -> Alcotest.fail "wrong kind")

let test_data_region () =
  let p = simple_program () in
  let d = Data.create p in
  let a2 = Data.node_addr d "r" 2 in
  Data.field_set d "r" ~ptr:a2 ~field:1 (Vint 77);
  (match Data.field_get d "r" ~ptr:a2 ~field:1 with
  | Vint 77 -> ()
  | _ -> Alcotest.fail "field roundtrip");
  Alcotest.(check int) "field addr" (a2 + 8) (Data.field_addr d "r" ~ptr:a2 ~field:1);
  Alcotest.check_raises "null deref" (Invalid_argument "Data: null pointer dereference")
    (fun () -> ignore (Data.field_get d "r" ~ptr:0 ~field:0))

let test_data_copy_equal () =
  let p = simple_program () in
  let d = Data.create p in
  Data.set d "a" 0 (Vfloat 1.0);
  let d2 = Data.copy d in
  Alcotest.(check bool) "copy equal" true (Data.equal d d2);
  Data.set d2 "a" 0 (Vfloat 2.0);
  Alcotest.(check bool) "diverged" false (Data.equal d d2)

let test_data_nan_equal () =
  let p = simple_program () in
  let d = Data.create p in
  Data.set d "a" 3 (Vfloat Float.nan);
  Alcotest.(check bool) "a store holding a NaN equals its copy" true
    (Data.equal d (Data.copy d));
  let d2 = Data.copy d in
  Data.set d2 "a" 3 (Vfloat (Int64.float_of_bits 0x7ff8_0000_dead_beefL));
  Alcotest.(check bool) "NaN payloads do not matter" true (Data.equal ~eps:0.0 d d2);
  Data.set d2 "a" 3 (Vfloat 0.0);
  Alcotest.(check bool) "NaN against a number" false (Data.equal d d2);
  Alcotest.(check bool) "number against a NaN" false (Data.equal d2 d)

let test_data_inf_equal () =
  let p = simple_program () in
  let d = Data.create p in
  Data.set d "a" 3 (Vfloat Float.infinity);
  let d2 = Data.copy d in
  Alcotest.(check bool) "+inf equals its copy at the default eps" true (Data.equal d d2);
  Alcotest.(check bool) "+inf equals its copy at eps 0" true (Data.equal ~eps:0.0 d d2);
  Data.set d2 "a" 3 (Vfloat 5.0);
  Alcotest.(check bool) "+inf against 5.0" false (Data.equal d d2);
  Alcotest.(check bool) "5.0 against +inf" false (Data.equal d2 d);
  Data.set d2 "a" 3 (Vfloat Float.neg_infinity);
  Alcotest.(check bool) "+inf against -inf" false (Data.equal d d2);
  Alcotest.(check bool) "+inf against -inf at eps 0" false (Data.equal ~eps:0.0 d d2)

let test_data_home () =
  let p = simple_program () in
  let d = Data.create p in
  (* array a: 64 elems x 8B = 512B over 4 procs -> 128B chunks *)
  Alcotest.(check int) "first chunk" 0
    (Data.home_of_addr d ~nprocs:4 (Data.addr_of d "a" 0));
  Alcotest.(check int) "last chunk" 3
    (Data.home_of_addr d ~nprocs:4 (Data.addr_of d "a" 63));
  Alcotest.(check int) "uniproc" 0
    (Data.home_of_addr d ~nprocs:1 (Data.addr_of d "a" 63))

(* Model-based check of the store: random operation sequences run on a
   [Data.t] and on plain [value array]s, one per array and per region. *)

let value_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun x -> Vfloat x)
            (oneofl
               [
                 0.0; -0.0; 1.0; 1.0 +. 1e-10; 1.0 +. 1e-6; 1e12; 1e12 +. 1.0;
                 -3.5; Float.nan; Int64.float_of_bits 0x7ff8_0000_dead_beefL;
                 Float.infinity; Float.neg_infinity;
               ]) );
        (2, map (fun i -> Vint i) (oneofl [ 0; 1; -1; 42; min_int; max_int ]));
        (1, map (fun p -> Vptr p) (oneofl [ 0; 1; 0x2000; max_int ]));
      ])

let pp_value = function
  | Vfloat x -> Printf.sprintf "Vfloat %h" x
  | Vint i -> Printf.sprintf "Vint %d" i
  | Vptr p -> Printf.sprintf "Vptr %#x" p

(* identity, floats by bit pattern: NaN payloads and -0.0 must survive *)
let same_value a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Vint x, Vint y | Vptr x, Vptr y -> x = y
  | _ -> false

(* the store's documented comparison, on boxed values: [Float.equal]
   (the same infinity, or two NaNs), or two finite floats within eps *)
let model_value_equal eps a b =
  match (a, b) with
  | Vfloat x, Vfloat y when Float.equal x y -> true
  | Vfloat x, Vfloat y when not (Float.is_finite x && Float.is_finite y) -> false
  | Vfloat x, Vfloat y ->
      let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
      Float.abs (x -. y) <= eps *. scale
  | Vint x, Vint y | Vptr x, Vptr y -> x = y
  | _ -> false

type store_op =
  | Set of bool * int * value  (* on the copy?, index (unclamped), value *)
  | Get of bool * int
  | Field_set of bool * int * int * value  (* node, field *)
  | Field_get of bool * int * int
  | Copy
  | Equal of float

let pp_store_op = function
  | Set (c, i, v) -> Printf.sprintf "set%s %d %s" (if c then "'" else "") i (pp_value v)
  | Get (c, i) -> Printf.sprintf "get%s %d" (if c then "'" else "") i
  | Field_set (c, n, f, v) ->
      Printf.sprintf "field_set%s %d.%d %s" (if c then "'" else "") n f (pp_value v)
  | Field_get (c, n, f) -> Printf.sprintf "field_get%s %d.%d" (if c then "'" else "") n f
  | Copy -> "copy"
  | Equal eps -> Printf.sprintf "equal ~eps:%g" eps

let model_len = 5
let model_nodes = 3

let store_op_gen =
  QCheck.Gen.(
    let index = int_range (-2) (model_len + 1) in
    let node = int_range 0 (model_nodes - 1) and field = int_range 0 1 in
    frequency
      [
        (4, map3 (fun c i v -> Set (c, i, v)) bool index value_gen);
        (2, map2 (fun c i -> Get (c, i)) bool index);
        (3, map4 (fun c n f v -> Field_set (c, n, f, v)) bool node field value_gen);
        (2, map3 (fun c n f -> Field_get (c, n, f)) bool node field);
        (1, return Copy);
        (2, map (fun e -> Equal e) (oneofl [ 1e-9; 0.0; 1e-3 ]));
      ])

let prop_store_model =
  let p =
    let open Builder in
    program "model"
      ~arrays:[ array_decl "a" model_len ]
      ~regions:[ region_decl ~node_size:16 "r" model_nodes ]
      []
  in
  QCheck.Test.make ~name:"store matches a value-array model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (1 -- 40) store_op_gen))
    (fun ops ->
      let fresh () =
        (Array.make model_len (Vfloat 0.0), Array.make (2 * model_nodes) (Vint 0))
      in
      (* the original, and the most recent copy of it *)
      let d = ref (Data.create p) and m = ref (fresh ()) in
      let d' = ref (Data.create p) and m' = ref (fresh ()) in
      let pick c = if c then (!d', !m') else (!d, !m) in
      let clamp i = max 0 (min (model_len - 1) i) in
      let ptr d n = Data.node_addr d "r" n in
      let model_equal eps (a1, r1) (a2, r2) =
        Array.for_all2 (model_value_equal eps) a1 a2
        && Array.for_all2 (model_value_equal eps) r1 r2
      in
      let agrees (d, (a, r)) =
        List.for_all (fun i -> same_value (Data.get d "a" i) a.(i)) (List.init model_len Fun.id)
        && List.for_all
             (fun s ->
               same_value (Data.field_get d "r" ~ptr:(ptr d (s / 2)) ~field:(s mod 2)) r.(s))
             (List.init (2 * model_nodes) Fun.id)
      in
      let step = function
        | Set (c, i, v) ->
            let d, (a, _) = pick c in
            Data.set d "a" i v;
            a.(clamp i) <- v;
            true
        | Get (c, i) ->
            let d, (a, _) = pick c in
            same_value (Data.get d "a" i) a.(clamp i)
        | Field_set (c, n, f, v) ->
            let d, (_, r) = pick c in
            Data.field_set d "r" ~ptr:(ptr d n) ~field:f v;
            r.((2 * n) + f) <- v;
            true
        | Field_get (c, n, f) ->
            let d, (_, r) = pick c in
            same_value (Data.field_get d "r" ~ptr:(ptr d n) ~field:f) r.((2 * n) + f)
        | Copy ->
            let a, r = !m in
            d' := Data.copy !d;
            m' := (Array.copy a, Array.copy r);
            true
        | Equal eps ->
            Bool.equal (Data.equal ~eps !d !d') (model_equal eps !m !m')
            && Bool.equal (Data.equal ~eps !d' !d) (model_equal eps !m' !m)
      in
      List.for_all step ops && agrees (!d, !m) && agrees (!d', !m'))

(* ------------------------------- Exec ------------------------------ *)

let run_and_get p init name idx =
  let d = Data.create p in
  init d;
  Exec.run p d;
  Data.get d name idx

let test_exec_sum_loop () =
  let p =
    let open Builder in
    program "sum"
      ~arrays:[ array_decl "a" 10; array_decl "out" 1 ]
      [
        assign "s" (flt 0.0);
        loop "i" (cst 0) (cst 10) [ assign "s" (sc "s" + arr "a" (ix "i")) ];
        store (aref "out" (cst 0)) (sc "s");
      ]
  in
  let init d = for i = 0 to 9 do Data.set d "a" i (Vfloat (float_of_int i)) done in
  match run_and_get p init "out" 0 with
  | Vfloat v -> Alcotest.(check (float 1e-9)) "sum 0..9" 45.0 v
  | _ -> Alcotest.fail "wrong kind"

let test_exec_if () =
  let p =
    let open Builder in
    program "iftest"
      ~arrays:[ array_decl "out" 2 ]
      [
        loop "i" (cst 0) (cst 2)
          [
            if_ (iv "i" < num 1)
              [ store (aref "out" (ix "i")) (flt 1.0) ]
              [ store (aref "out" (ix "i")) (flt 2.0) ];
          ];
      ]
  in
  let d = Data.create p in
  Exec.run p d;
  (match (Data.get d "out" 0, Data.get d "out" 1) with
  | Vfloat a, Vfloat b ->
      Alcotest.(check (float 0.0)) "then" 1.0 a;
      Alcotest.(check (float 0.0)) "else" 2.0 b
  | _ -> Alcotest.fail "wrong kinds")

let test_exec_chase () =
  let p =
    let open Builder in
    program "chase"
      ~arrays:[ array_decl "out" 1; array_decl "start" 1 ]
      ~regions:[ region_decl ~node_size:16 "n" 4 ]
      [
        assign "s" (flt 0.0);
        chase "p" ~init:(ld (aref "start" (cst 0))) ~region:"n" ~next:0
          [ assign "s" (sc "s" + ld (fref "n" (sc "p") 1)) ];
        store (aref "out" (cst 0)) (sc "s");
      ]
  in
  let d = Data.create p in
  (* chain 0 -> 1 -> 2 -> null with data 10, 20, 30 *)
  Data.set d "start" 0 (Data.node_ptr d "n" 0);
  for k = 0 to 2 do
    let addr = Data.node_addr d "n" k in
    Data.field_set d "n" ~ptr:addr ~field:1 (Vfloat (float_of_int ((k + 1) * 10)));
    Data.field_set d "n" ~ptr:addr ~field:0
      (if k = 2 then Vptr 0 else Data.node_ptr d "n" (k + 1))
  done;
  Exec.run p d;
  match Data.get d "out" 0 with
  | Vfloat v -> Alcotest.(check (float 1e-9)) "chain sum" 60.0 v
  | _ -> Alcotest.fail "wrong kind"

let test_exec_chase_count () =
  let p =
    let open Builder in
    program "chase_count"
      ~arrays:[ array_decl "out" 1; array_decl "start" 1 ]
      ~regions:[ region_decl ~node_size:16 "n" 8 ]
      [
        assign "s" (flt 0.0);
        chase "p" ~init:(ld (aref "start" (cst 0))) ~region:"n" ~next:0
          ~count:(Builder.cst 3)
          [ assign "s" (sc "s" + flt 1.0) ];
        store (aref "out" (cst 0)) (sc "s");
      ]
  in
  let d = Data.create p in
  Data.set d "start" 0 (Data.node_ptr d "n" 0);
  for k = 0 to 7 do
    Data.field_set d "n" ~ptr:(Data.node_addr d "n" k) ~field:0
      (Data.node_ptr d "n" ((k + 1) mod 8))
  done;
  Exec.run p d;
  match Data.get d "out" 0 with
  | Vfloat v -> Alcotest.(check (float 1e-9)) "exactly count iterations" 3.0 v
  | _ -> Alcotest.fail "wrong kind"

let test_exec_div_mod_zero () =
  let p =
    let open Builder in
    program "divzero"
      ~arrays:[ array_decl "out" 2 ]
      [
        store (aref "out" (cst 0)) (flt 1.0 / flt 0.0);
        store (aref "out" (cst 1)) (flt 1.0 %% flt 0.0);
      ]
  in
  let d = Data.create p in
  Exec.run p d;
  (match (Data.get d "out" 0, Data.get d "out" 1) with
  | Vfloat a, Vfloat b ->
      Alcotest.(check (float 0.0)) "div by zero is 0" 0.0 a;
      Alcotest.(check (float 0.0)) "mod by zero is 0" 0.0 b
  | _ -> Alcotest.fail "wrong kinds")

let test_exec_limit () =
  let p =
    let open Builder in
    program "forever"
      ~arrays:[ array_decl "a" 4 ]
      [ loop "i" (cst 0) (cst 1000000) [ use (arr "a" (cst 0)) ] ]
  in
  let d = Data.create p in
  Alcotest.check_raises "limit" Exec.Limit_exceeded (fun () ->
      Exec.run ~max_ops:100 p d)

let test_exec_parallel_distribution () =
  let p =
    let open Builder in
    program "par"
      ~arrays:[ array_decl "a" 16 ]
      [ loop ~parallel:true "i" (cst 0) (cst 16) [ store (aref "a" (ix "i")) (flt 1.0) ] ]
  in
  let d = Data.create p in
  let procs_seen = ref [] in
  let barriers = ref 0 in
  let emit =
    {
      Exec.null_emitter with
      e_set_proc = (fun p -> if not (List.mem p !procs_seen) then procs_seen := p :: !procs_seen);
      e_barrier = (fun () -> incr barriers);
    }
  in
  Exec.run ~emit ~nprocs:4 p d;
  Alcotest.(check int) "all 4 procs used" 4 (List.length !procs_seen);
  Alcotest.(check int) "barrier after parallel loop" 1 !barriers

(* ------------------------------ Pretty ----------------------------- *)


let test_subst_var_affine () =
  let stmt =
    let open Builder in
    store (aref "a" ((2 *: ix "j") +: ix "i")) (flt 1.0)
  in
  (* j := 3*k + 1 *)
  let repl = Affine.add (Affine.scale 3 (Affine.var "k")) (Affine.const 1) in
  match Memclust_transform.Subst.subst_var_affine "j" repl stmt with
  | Ast.Assign (Ast.Lmem { target = Ast.Direct { index; _ }; _ }, _) ->
      let env v = match v with "k" -> 5 | "i" -> 7 | _ -> 0 in
      Alcotest.(check int) "substituted" ((2 * ((3 * 5) + 1)) + 7)
        (Affine.eval env index)
  | _ -> Alcotest.fail "unexpected shape"

let test_measure_nested () =
  let inner =
    let open Builder in
    loop "i" (cst 0) (cst 10) [ store (aref "a" (ix "i")) (flt 1.0) ]
  in
  (* store = addr + store + const-expr 0 ops = 2; +2 loop overhead = 4/iter *)
  Alcotest.(check int) "nested loop counted by trip" 40 (Measure.stmt_ops inner);
  let ch =
    let open Builder in
    chase "p" ~init:(ld (aref "st" (cst 0))) ~region:"r" ~next:0
      [ use (ld (fref "r" (sc "p") 1)) ]
  in
  Alcotest.(check bool) "chase uses nominal trip" true (Measure.stmt_ops ch > 8)

let test_exec_barrier_statement () =
  let p =
    let open Builder in
    program "bar" ~arrays:[ array_decl "a" 4 ]
      [ store (aref "a" (cst 0)) (flt 1.0); Ast.Barrier; store (aref "a" (cst 1)) (flt 2.0) ]
  in
  let barriers = ref 0 in
  let emit = { Exec.null_emitter with e_barrier = (fun () -> incr barriers) } in
  let d = Data.create p in
  Exec.run ~emit p d;
  Alcotest.(check int) "explicit barrier emitted" 1 !barriers

let test_exec_prefetch_hint () =
  let p =
    let open Builder in
    program "pf" ~arrays:[ array_decl "a" 16 ]
      [ prefetch (aref "a" (cst 3)); store (aref "a" (cst 3)) (flt 1.0) ]
  in
  let hints = ref [] in
  let emit =
    { Exec.null_emitter with
      e_prefetch = (fun ~ref_id:_ ~addr _ _ -> hints := addr :: !hints) }
  in
  let d = Data.create p in
  Exec.run ~emit p d;
  Alcotest.(check int) "hint emitted with the element address" 1 (List.length !hints);
  Alcotest.(check int) "address" (Data.addr_of d "a" 3) (List.hd !hints)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0


let test_exec_numeric_ops () =
  let p =
    let open Builder in
    program "ops"
      ~arrays:[ array_decl "out" 8 ]
      [
        store (aref "out" (cst 0)) (Ast.Unop (Ast.Sqrt, flt 9.0));
        store (aref "out" (cst 1)) (Ast.Unop (Ast.Abs, flt (-4.5)));
        store (aref "out" (cst 2)) (Ast.Binop (Ast.Min, flt 3.0, flt 7.0));
        store (aref "out" (cst 3)) (Ast.Binop (Ast.Max, flt 3.0, flt 7.0));
        store (aref "out" (cst 4)) (Ast.Unop (Ast.Neg, flt 2.0));
        store (aref "out" (cst 5)) (flt 7.0 %% flt 4.0);
        store (aref "out" (cst 6)) (Ast.Unop (Ast.Trunc, flt 3.9));
      ]
  in
  let d = Data.create p in
  Exec.run p d;
  let get i = match Data.get d "out" i with
    | Ast.Vfloat v -> v
    | Ast.Vint v -> float_of_int v
    | Ast.Vptr v -> float_of_int v
  in
  Alcotest.(check (float 1e-9)) "sqrt" 3.0 (get 0);
  Alcotest.(check (float 1e-9)) "abs" 4.5 (get 1);
  Alcotest.(check (float 1e-9)) "min" 3.0 (get 2);
  Alcotest.(check (float 1e-9)) "max" 7.0 (get 3);
  Alcotest.(check (float 1e-9)) "neg" (-2.0) (get 4);
  Alcotest.(check (float 1e-9)) "fmod" 3.0 (get 5);
  Alcotest.(check (float 1e-9)) "trunc" 3.0 (get 6)

let test_exec_pointer_arithmetic () =
  let p =
    let open Builder in
    program "ptr"
      ~arrays:[ array_decl "out" 2 ]
      ~regions:[ region_decl ~node_size:16 "r" 4 ]
      [
        assign "p" (Ast.Const (Ast.Vptr 0x2000));
        store (aref "out" (cst 0)) (sc "p" + num 16);
      ]
  in
  let d = Data.create p in
  Exec.run p d;
  match Data.get d "out" 0 with
  | Ast.Vptr a -> Alcotest.(check int) "ptr + int stays ptr" 0x2010 a
  | _ -> Alcotest.fail "pointer arithmetic lost the pointer"

(* The executor's arithmetic against a reference copy of the original
   operator table (one closure-built function for every operator). *)
let reference_binop op a b =
  let to_float = function Vfloat x -> x | Vint i | Vptr i -> float_of_int i in
  let to_int = function Vint i | Vptr i -> i | Vfloat x -> int_of_float x in
  let is_float = function Vfloat _ -> true | Vint _ | Vptr _ -> false in
  let fl f = Vfloat (f (to_float a) (to_float b)) in
  let it f = Vint (f (to_int a) (to_int b)) in
  let numeric ffun ifun = if is_float a || is_float b then fl ffun else it ifun in
  let cmp fcmp icmp =
    let r =
      if is_float a || is_float b then fcmp (to_float a) (to_float b)
      else icmp (to_int a) (to_int b)
    in
    Vint (if r then 1 else 0)
  in
  match op with
  | Add -> (
      match (a, b) with
      | Vptr p, v | v, Vptr p -> Vptr (p + to_int v)
      | _ -> numeric ( +. ) ( + ))
  | Sub -> numeric ( -. ) ( - )
  | Mul -> numeric ( *. ) ( * )
  | Div ->
      if is_float a || is_float b then
        let d = to_float b in
        Vfloat (if d = 0.0 then 0.0 else to_float a /. d)
      else
        let d = to_int b in
        Vint (if d = 0 then 0 else to_int a / d)
  | Mod ->
      if is_float a || is_float b then
        let d = to_float b in
        Vfloat (if d = 0.0 then 0.0 else Float.rem (to_float a) d)
      else
        let d = to_int b in
        Vint (if d = 0 then 0 else to_int a mod d)
  | Min -> numeric Float.min min
  | Max -> numeric Float.max max
  | Lt -> cmp ( < ) ( < )
  | Le -> cmp ( <= ) ( <= )
  | Eq -> cmp ( = ) ( = )

let binop_operand_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun x -> Vfloat x)
            (oneof
               [
                 oneofl
                   [
                     Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity;
                     1.0; -2.5; 3.9; 1e300; Float.max_float;
                   ];
                 float;
               ]) );
        ( 3,
          map
            (fun i -> Vint i)
            (oneof [ oneofl [ 0; 1; -1; 2; -7; min_int; max_int ]; int ]) );
        (1, map (fun p -> Vptr p) (oneofl [ 0; 64; 0x2000 ]));
      ])

let prop_exec_binop =
  let ops = [ Add; Sub; Mul; Div; Mod; Min; Max; Lt; Le; Eq ] in
  let pp_op op = Format.asprintf "%a" Pretty.pp_expr (Binop (op, Const (Vint 0), Const (Vint 0))) in
  QCheck.Test.make ~name:"binop matches the reference operators" ~count:2000
    (QCheck.make
       ~print:(fun (op, a, b) ->
         Printf.sprintf "%s  %s  %s" (pp_op op) (pp_value a) (pp_value b))
       QCheck.Gen.(triple (oneofl ops) binop_operand_gen binop_operand_gen))
    (fun (op, a, b) ->
      let p =
        let open Builder in
        program "binop" ~arrays:[ array_decl "out" 1 ]
          [ store (aref "out" (cst 0)) (Binop (op, Const a, Const b)) ]
      in
      let d = Data.create p in
      Exec.run p d;
      same_value (Data.get d "out" 0) (reference_binop op a b))

let test_data_elem_size_four () =
  let p =
    let open Builder in
    program "small_elems"
      ~arrays:[ array_decl ~elem_size:4 "idx" 32 ]
      [ use (arr "idx" (cst 0)) ]
  in
  let d = Data.create p in
  Alcotest.(check int) "4-byte stride" (Data.array_base d "idx" + 12)
    (Data.addr_of d "idx" 3);
  Alcotest.(check int) "bytes" 128 (Data.array_bytes d "idx")

let test_pretty_more () =
  let s1 =
    let open Builder in
    Pretty.stmt_to_string
      (chase "p" ~init:(ld (aref "st" (cst 0))) ~region:"r" ~next:0
         ~count:(cst 5) [])
  in
  Alcotest.(check bool) "chase shows count" true (contains ~sub:"5 times" s1);
  let s2 =
    let open Builder in
    Pretty.stmt_to_string (prefetch (aref "a" (ix "i")))
  in
  Alcotest.(check bool) "prefetch rendered" true (contains ~sub:"prefetch(a[i])" s2)

let prop_affine_compare_consistent =
  QCheck.Test.make ~name:"compare consistent with equal" ~count:200
    QCheck.(pair affine_arb affine_arb)
    (fun (a, b) -> Affine.equal a b = (Affine.compare a b = 0))


let test_pretty () =
  let stmt =
    let open Builder in
    loop "i" (cst 0) (cst 4)
      [ store (aref "a" (ix "i")) (arr "a" (ix "i") + flt 1.0) ]
  in
  let s = Pretty.stmt_to_string stmt in
  Alcotest.(check bool) "loop header" true (contains ~sub:"for (i = 0; i < 4" s);
  Alcotest.(check bool) "subscript" true (contains ~sub:"a[i]" s);
  let stmt2 =
    let open Builder in
    if_ (sc "x" < flt 1.0) [ Ast.Barrier ] []
  in
  let s2 = Pretty.stmt_to_string stmt2 in
  Alcotest.(check bool) "barrier" true (contains ~sub:"barrier" s2)

let () =
  Alcotest.run "ir"
    [
      ( "affine",
        [
          qtest prop_affine_add;
          qtest prop_affine_scale;
          qtest prop_affine_sub_self;
          qtest prop_affine_shift;
          qtest prop_affine_subst;
          Alcotest.test_case "basics" `Quick test_affine_basics;
          Alcotest.test_case "pp" `Quick test_affine_pp;
        ] );
      ( "program",
        [
          Alcotest.test_case "renumber unique" `Quick test_renumber_unique;
          Alcotest.test_case "refs context" `Quick test_refs_context;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "undeclared array" `Quick test_validate_undeclared_array;
          Alcotest.test_case "dup loop var" `Quick test_validate_dup_loop_var;
          Alcotest.test_case "bad field" `Quick test_validate_bad_field;
          Alcotest.test_case "bad step" `Quick test_validate_bad_step;
          Alcotest.test_case "scalars written" `Quick test_scalars_written;
          Alcotest.test_case "measure" `Quick test_measure;
        ] );
      ( "data",
        [
          Alcotest.test_case "layout" `Quick test_data_layout;
          Alcotest.test_case "values" `Quick test_data_values;
          Alcotest.test_case "region" `Quick test_data_region;
          Alcotest.test_case "copy/equal" `Quick test_data_copy_equal;
          Alcotest.test_case "NaN equals NaN" `Quick test_data_nan_equal;
          Alcotest.test_case "infinity equals only itself" `Quick test_data_inf_equal;
          Alcotest.test_case "home" `Quick test_data_home;
          qtest prop_store_model;
        ] );
      ( "exec",
        [
          Alcotest.test_case "sum loop" `Quick test_exec_sum_loop;
          Alcotest.test_case "if" `Quick test_exec_if;
          Alcotest.test_case "chase" `Quick test_exec_chase;
          Alcotest.test_case "chase count" `Quick test_exec_chase_count;
          Alcotest.test_case "div/mod zero" `Quick test_exec_div_mod_zero;
          Alcotest.test_case "op limit" `Quick test_exec_limit;
          Alcotest.test_case "parallel distribution" `Quick test_exec_parallel_distribution;
          Alcotest.test_case "barrier statement" `Quick test_exec_barrier_statement;
          Alcotest.test_case "prefetch hint" `Quick test_exec_prefetch_hint;
          Alcotest.test_case "measure nested" `Quick test_measure_nested;
          Alcotest.test_case "subst var affine" `Quick test_subst_var_affine;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "render" `Quick test_pretty;
          Alcotest.test_case "chase/prefetch render" `Quick test_pretty_more;
        ] );
      ( "more exec",
        [
          Alcotest.test_case "numeric ops" `Quick test_exec_numeric_ops;
          Alcotest.test_case "pointer arithmetic" `Quick test_exec_pointer_arithmetic;
          Alcotest.test_case "4-byte elements" `Quick test_data_elem_size_four;
          qtest prop_affine_compare_consistent;
          qtest prop_exec_binop;
        ] );
    ]

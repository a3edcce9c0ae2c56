open Memclust_ir
open Memclust_transform

let qtest = QCheck_alcotest.to_alcotest

(* ----------------------------- helpers ----------------------------- *)

(* run both programs on identically-initialized stores and compare *)
let semantics_equal ?(eps = 1e-9) p1 p2 init =
  let d1 = Data.create p1 and d2 = Data.create p2 in
  init d1;
  init d2;
  Exec.run p1 d1;
  Exec.run p2 d2;
  Data.equal ~eps d1 d2

let float_init names n d =
  List.iteri
    (fun ai name ->
      for i = 0 to n - 1 do
        Data.set d name i (Ast.Vfloat (float_of_int (i + (1000 * ai)) *. 0.37))
      done)
    names

(* the Figure 2(a) traversal with a reduction row vector *)
let fig2a ?(rows = 23) ?(cols = 17) () =
  let open Builder in
  program "fig2a"
    ~arrays:[ array_decl "a" (Stdlib.( * ) rows cols); array_decl "s" rows ]
    [
      loop "j" (cst 0) (cst rows)
        [
          loop "i" (cst 0) (cst cols)
            [
              store (aref "s" (ix "j"))
                (arr "s" (ix "j") + arr "a" (idx2 ~cols (ix "j") (ix "i")));
            ];
        ];
    ]

let outer_of p = match p.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false

let replace_nest p stmts = Program.renumber { p with Ast.body = stmts }

(* ------------------------------ Subst ------------------------------ *)

let test_shift_var () =
  let open Builder in
  let s = store (aref "a" (ix "j" +: cst 1)) (iv "j" + num 1) in
  let shifted = Subst.shift_var "j" 3 s in
  (match shifted with
  | Ast.Assign (Ast.Lmem { target = Ast.Direct { index; _ }; _ }, rhs) ->
      Alcotest.(check int) "subscript shifted" 4 (Affine.constant index);
      (* run-time use becomes j + 3 *)
      (match rhs with
      | Ast.Binop (_, Ast.Binop (Ast.Add, Ast.Ivar "j", Ast.Const (Ast.Vint 3)), _) -> ()
      | _ -> Alcotest.fail "Ivar not shifted")
  | _ -> Alcotest.fail "unexpected shape")

let test_rename_scalars_chase () =
  let open Builder in
  let s =
    chase "p" ~init:(ld (aref "st" (cst 0))) ~region:"r" ~next:0
      [ assign "acc" (sc "acc" + ld (fref "r" (sc "p") 1)) ]
  in
  match Subst.rename_scalars (fun v -> v ^ "$x") s with
  | Ast.Chase c ->
      Alcotest.(check string) "cvar renamed" "p$x" c.Ast.cvar;
      (match c.Ast.cbody with
      | [ Ast.Assign (Ast.Lscalar "acc$x", _) ] -> ()
      | _ -> Alcotest.fail "body scalar not renamed")
  | _ -> Alcotest.fail "unexpected"

(* ----------------------------- Legality ---------------------------- *)

let test_legal_independent_rows () =
  (* store a[j,i]: rows are independent, any factor legal *)
  let l = outer_of (fig2a ()) in
  Alcotest.(check bool) "legal" true
    (Legality.unroll_jam_legal ~params:[] ~outer_ranges:[] ~target:l ~factor:8)

let test_illegal_carried () =
  let open Builder in
  let p =
    program "carried"
      ~arrays:[ array_decl "a" 1024 ]
      [
        loop "j" (cst 1) (cst 32)
          [
            loop "i" (cst 0) (cst 32)
              [
                store (aref "a" (idx2 ~cols:32 (ix "j") (ix "i")))
                  (arr "a" (idx2 ~cols:32 (ix "j" -: cst 1) (ix "i")));
              ];
          ];
      ]
  in
  let l = outer_of p in
  Alcotest.(check bool) "illegal" false
    (Legality.unroll_jam_legal ~params:[] ~outer_ranges:[] ~target:l ~factor:2)

let test_parallel_overrides () =
  let open Builder in
  let p =
    program "carried_par"
      ~arrays:[ array_decl "a" 1024 ]
      [
        loop ~parallel:true "j" (cst 1) (cst 32)
          [
            loop "i" (cst 0) (cst 32)
              [
                store (aref "a" (idx2 ~cols:32 (ix "j") (ix "i")))
                  (arr "a" (idx2 ~cols:32 (ix "j" -: cst 1) (ix "i")));
              ];
          ];
      ]
  in
  let l = outer_of p in
  Alcotest.(check bool) "parallel asserts independence" true
    (Legality.unroll_jam_legal ~params:[] ~outer_ranges:[] ~target:l ~factor:2)

let test_gcd_saves_lu_pattern () =
  (* A[(16+i)*64 + j] written, A[k*64 + j] read with k in an outer loop:
     distances 1..7 need a multiple of 64 — independent by the GCD test *)
  let open Builder in
  let p =
    program "lu_like"
      ~arrays:[ array_decl "A" 4096 ]
      [
        loop "k" (cst 0) (cst 16)
          [
            loop "i" (cst 0) (cst 16)
              [
                loop "j" (cst 0) (cst 16)
                  [
                    store (aref "A" (idx2 ~cols:64 (ix "i" +: cst 16) (ix "j")))
                      (arr "A" (idx2 ~cols:64 (ix "i" +: cst 16) (ix "j"))
                      - arr "A" (idx2 ~cols:64 (ix "k") (ix "j")));
                  ];
              ];
          ];
      ]
  in
  let k_loop = outer_of p in
  let i_loop = match k_loop.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false in
  let outer_ranges = Legality.ranges_of_nest ~params:[] [ k_loop ] in
  Alcotest.(check bool) "independent" true
    (Legality.unroll_jam_legal ~params:[] ~outer_ranges ~target:i_loop ~factor:8)

let test_interchange_stencil_illegal () =
  let open Builder in
  let p =
    program "skew"
      ~arrays:[ array_decl "a" 4096 ]
      [
        loop "j" (cst 1) (cst 32)
          [
            loop "i" (cst 0) (cst 31)
              [
                store (aref "a" (idx2 ~cols:64 (ix "j") (ix "i")))
                  (arr "a" (idx2 ~cols:64 (ix "j" -: cst 1) (ix "i" +: cst 1)));
              ];
          ];
      ]
  in
  let l = outer_of p in
  (match Interchange.apply l with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "(<,>) dependence must forbid interchange")

let test_interchange_legal_and_semantics () =
  let p = fig2a ~rows:9 ~cols:11 () in
  let l = outer_of p in
  match Interchange.apply l with
  | Error e -> Alcotest.fail e
  | Ok swapped ->
      let p' = replace_nest p [ swapped ] in
      Alcotest.(check bool) "semantics" true
        (semantics_equal p p' (float_init [ "a" ] 99))

(* --------------------------- Unroll-and-jam ------------------------ *)

let uj_semantics ~rows ~cols ~factor =
  let p = fig2a ~rows ~cols () in
  match Unroll_jam.apply ~stamp:1 ~factor (outer_of p) with
  | Error e -> Alcotest.failf "unroll-and-jam failed: %a" Unroll_jam.pp_error e
  | Ok stmts ->
      let p' = replace_nest p stmts in
      (match Program.validate p' with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool)
        (Printf.sprintf "semantics rows=%d factor=%d" rows factor)
        true
        (semantics_equal p p' (float_init [ "a" ] (rows * cols)))

let test_uj_exact_division () = uj_semantics ~rows:24 ~cols:17 ~factor:4
let test_uj_with_postlude () = uj_semantics ~rows:23 ~cols:17 ~factor:4
let test_uj_factor_one () = uj_semantics ~rows:23 ~cols:17 ~factor:1

let prop_uj_semantics =
  QCheck.Test.make ~name:"unroll-and-jam preserves semantics" ~count:40
    QCheck.(triple (int_range 2 30) (int_range 1 20) (int_range 2 8))
    (fun (rows, cols, factor) ->
      QCheck.assume (rows >= factor);
      let p = fig2a ~rows ~cols () in
      match Unroll_jam.apply ~stamp:1 ~factor (outer_of p) with
      | Error _ -> true (* refusing is always sound *)
      | Ok stmts ->
          let p' = replace_nest p stmts in
          semantics_equal p p' (float_init [ "a" ] (rows * cols)))

let test_uj_too_few_iterations () =
  let p = fig2a ~rows:3 ~cols:5 () in
  match Unroll_jam.apply ~stamp:1 ~factor:8 (outer_of p) with
  | Error (Unroll_jam.Not_unrollable _) -> ()
  | _ -> Alcotest.fail "expected refusal"

let test_uj_carried_scalar_refused () =
  let open Builder in
  let p =
    program "carried_scalar"
      ~arrays:[ array_decl "a" 64; array_decl "o" 1 ]
      [
        assign "s" (flt 0.0);
        loop "j" (cst 0) (cst 8)
          [
            loop "i" (cst 0) (cst 8)
              [ assign "s" (sc "s" + arr "a" (idx2 ~cols:8 (ix "j") (ix "i"))) ];
          ];
        store (aref "o" (cst 0)) (sc "s");
      ]
  in
  let l = match p.Ast.body with [ _; Ast.Loop l; _ ] -> l | _ -> assert false in
  match Unroll_jam.apply ~stamp:1 ~factor:2 l with
  | Error (Unroll_jam.Not_unrollable _) -> ()
  | _ -> Alcotest.fail "carried scalar must refuse"

let test_uj_postlude_interchanged () =
  let p = fig2a ~rows:23 ~cols:17 () in
  match Unroll_jam.apply ~stamp:1 ~factor:4 (outer_of p) with
  | Error _ -> Alcotest.fail "should succeed"
  | Ok stmts -> (
      Alcotest.(check int) "main + postlude" 2 (List.length stmts);
      match List.nth stmts 1 with
      | Ast.Loop l ->
          (* interchanged: the postlude's outer loop is now i *)
          Alcotest.(check string) "outer var is i" "i" l.Ast.var
      | _ -> Alcotest.fail "postlude missing")

let test_uj_scalar_renaming () =
  (* copies' temporaries are renamed so they stay independent *)
  let open Builder in
  let p =
    program "tmp"
      ~arrays:[ array_decl "a" 256; array_decl "o" 256 ]
      [
        loop "j" (cst 0) (cst 16)
          [
            loop "i" (cst 0) (cst 16)
              [
                assign "t" (arr "a" (idx2 ~cols:16 (ix "j") (ix "i")));
                store (aref "o" (idx2 ~cols:16 (ix "j") (ix "i"))) (sc "t" * sc "t");
              ];
          ];
      ]
  in
  match Unroll_jam.apply ~stamp:1 ~factor:4 (outer_of p) with
  | Error e -> Alcotest.failf "failed: %a" Unroll_jam.pp_error e
  | Ok stmts ->
      let p' = replace_nest p stmts in
      Alcotest.(check bool) "semantics with temporaries" true
        (semantics_equal p p' (float_init [ "a" ] 256))

(* ------------------------- Chase jamming --------------------------- *)

let chains_program ~chains ~region_nodes ~count =
  let open Builder in
  program "chains"
    ~arrays:[ array_decl "start" chains; array_decl "out" chains ]
    ~regions:[ region_decl ~node_size:32 "n" region_nodes ]
    [
      loop "j" (cst 0) (cst chains)
        [
          assign "s" (flt 0.0);
          (match count with
          | Some k ->
              chase "p" ~init:(ld (aref "start" (ix "j"))) ~region:"n" ~next:0
                ~count:(cst k)
                [ assign "s" (sc "s" + ld (fref "n" (sc "p") 1)) ]
          | None ->
              chase "p" ~init:(ld (aref "start" (ix "j"))) ~region:"n" ~next:0
                [ assign "s" (sc "s" + ld (fref "n" (sc "p") 1)) ]);
          store (aref "out" (ix "j")) (sc "s");
        ];
    ]

let init_chains ~chains ~len_of d =
  let node = ref 0 in
  for j = 0 to chains - 1 do
    let len = len_of j in
    if len = 0 then Data.set d "start" j (Ast.Vptr 0)
    else begin
      Data.set d "start" j (Data.node_ptr d "n" !node);
      for k = 0 to len - 1 do
        let addr = Data.node_addr d "n" (!node + k) in
        Data.field_set d "n" ~ptr:addr ~field:1
          (Ast.Vfloat (float_of_int (((j + 1) * 100) + k)));
        Data.field_set d "n" ~ptr:addr ~field:0
          (if k = len - 1 then Ast.Vptr 0 else Data.node_ptr d "n" (!node + k + 1))
      done;
      node := !node + len
    end
  done

let test_jam_equal_counts () =
  let p = chains_program ~chains:8 ~region_nodes:100 ~count:(Some 5) in
  let l = outer_of p in
  match Unroll_jam.apply ~stamp:1 ~factor:4 l with
  | Error e -> Alcotest.failf "failed: %a" Unroll_jam.pp_error e
  | Ok stmts ->
      let p' = replace_nest p stmts in
      Alcotest.(check bool) "semantics" true
        (semantics_equal p p' (init_chains ~chains:8 ~len_of:(fun _ -> 12)))

let test_jam_variable_lengths_guarded () =
  let p = chains_program ~chains:9 ~region_nodes:200 ~count:None in
  let l = outer_of p in
  match Unroll_jam.apply ~stamp:1 ~factor:3 l with
  | Error e -> Alcotest.failf "failed: %a" Unroll_jam.pp_error e
  | Ok stmts ->
      let p' = replace_nest p stmts in
      let lens = [| 3; 0; 7; 1; 1; 9; 2; 5; 4 |] in
      Alcotest.(check bool) "semantics with ragged chains" true
        (semantics_equal p p' (init_chains ~chains:9 ~len_of:(fun j -> lens.(j))))

let prop_jam_ragged =
  QCheck.Test.make ~name:"guarded chase jam on random chain lengths" ~count:25
    QCheck.(pair (int_range 2 4) (list_of_size (Gen.return 8) (int_range 0 9)))
    (fun (factor, lens) ->
      let lens = Array.of_list lens in
      let p = chains_program ~chains:8 ~region_nodes:100 ~count:None in
      match Unroll_jam.apply ~stamp:1 ~factor (outer_of p) with
      | Error _ -> false
      | Ok stmts ->
          let p' = replace_nest p stmts in
          semantics_equal p p' (init_chains ~chains:8 ~len_of:(fun j -> lens.(j))))

(* ------------------------- Inner unrolling ------------------------- *)

let test_inner_unroll_semantics () =
  let open Builder in
  let p =
    program "accsum"
      ~arrays:[ array_decl "a" 100; array_decl "o" 1 ]
      [
        assign "s" (flt 0.0);
        loop "i" (cst 0) (cst 100) [ assign "s" (sc "s" + arr "a" (ix "i")) ];
        store (aref "o" (cst 0)) (sc "s");
      ]
  in
  let l = match p.Ast.body with [ _; Ast.Loop l; _ ] -> l | _ -> assert false in
  match Inner_unroll.apply ~stamp:1 ~factor:7 l with
  | Error e -> Alcotest.fail e
  | Ok stmts ->
      let p' =
        Program.renumber
          { p with Ast.body = (List.hd p.Ast.body :: stmts) @ [ List.nth p.Ast.body 2 ] }
      in
      Alcotest.(check bool) "accumulator correct across copies" true
        (semantics_equal p p' (float_init [ "a" ] 100))

let test_inner_unroll_privatizes_temps () =
  let open Builder in
  let p =
    program "temps"
      ~arrays:[ array_decl "a" 64; array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [
            assign "t" (arr "a" (ix "i"));
            store (aref "o" (ix "i")) (sc "t" * flt 2.0);
          ];
      ]
  in
  let l = outer_of p in
  match Inner_unroll.apply ~stamp:1 ~factor:4 l with
  | Error e -> Alcotest.fail e
  | Ok stmts -> (
      let p' = replace_nest p stmts in
      Alcotest.(check bool) "semantics" true
        (semantics_equal p p' (float_init [ "a" ] 64));
      (* distinct names appear *)
      match List.hd stmts with
      | Ast.Loop l' ->
          let written = Program.scalars_written l'.Ast.body in
          Alcotest.(check bool) "renamed temp exists" true
            (List.exists
               (fun v ->
                 String.length v > 4 && String.equal (String.sub v 0 4) "t__k")
               written)
      | _ -> Alcotest.fail "no loop")

(* --------------------------- Strip-mining -------------------------- *)

let test_strip_mine_semantics () =
  let p = fig2a ~rows:24 ~cols:16 () in
  match Strip_mine.strip ~size:4 (outer_of p) with
  | Error e -> Alcotest.fail e
  | Ok st ->
      let p' = replace_nest p [ st ] in
      Alcotest.(check bool) "semantics" true
        (semantics_equal p p' (float_init [ "a" ] (24 * 16)))

let test_strip_and_interchange () =
  let p = fig2a ~rows:24 ~cols:16 () in
  match Strip_mine.strip_and_interchange ~size:4 (outer_of p) with
  | Error e -> Alcotest.fail e
  | Ok st ->
      let p' = replace_nest p [ st ] in
      Alcotest.(check bool) "semantics" true
        (semantics_equal p p' (float_init [ "a" ] (24 * 16)))

let test_strip_indivisible () =
  let p = fig2a ~rows:23 ~cols:16 () in
  match Strip_mine.strip ~size:4 (outer_of p) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected divisibility error"

(* ------------------------- Scalar replacement ---------------------- *)

let test_scalar_replace_cse () =
  let open Builder in
  let p =
    program "cse"
      ~arrays:[ array_decl "a" 64; array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [
            store (aref "o" (ix "i"))
              (arr "a" (ix "i") * arr "a" (ix "i") + arr "a" (ix "i"));
          ];
      ]
  in
  let p', saved = Scalar_replace.apply_innermost p in
  Alcotest.(check int) "two redundant loads removed" 2 saved;
  Alcotest.(check bool) "semantics" true
    (semantics_equal p p' (float_init [ "a" ] 64))

let test_scalar_replace_store_forward () =
  let open Builder in
  let p =
    program "fwd"
      ~arrays:[ array_decl "a" 64; array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [
            store (aref "a" (ix "i")) (flt 2.0);
            store (aref "o" (ix "i")) (arr "a" (ix "i") + flt 1.0);
          ];
      ]
  in
  let p', saved = Scalar_replace.apply_innermost p in
  Alcotest.(check int) "store-to-load forwarded" 1 saved;
  Alcotest.(check bool) "semantics" true
    (semantics_equal p p' (float_init [ "a" ] 64))

let test_scalar_replace_aliasing_safe () =
  (* stores to a different (symbolic) index must kill availability *)
  let open Builder in
  let p =
    program "alias"
      ~arrays:[ array_decl "a" 64; array_decl "o" 64 ]
      [
        loop "i" (cst 1) (cst 63)
          [
            assign "x" (arr "a" (ix "i"));
            store (aref "a" (ix "i" -: cst 1)) (flt 7.0);
            store (aref "o" (ix "i")) (arr "a" (ix "i") + sc "x");
          ];
      ]
  in
  let p', _ = Scalar_replace.apply_innermost p in
  Alcotest.(check bool) "semantics under aliasing" true
    (semantics_equal p p' (float_init [ "a" ] 64))

let test_scalar_replace_skips_irregular_store () =
  let open Builder in
  let p =
    program "irr"
      ~arrays:[ array_decl "a" 64; array_decl "idx" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [ store (iref "a" (arr "idx" (ix "i"))) (flt 1.0) ];
      ]
  in
  let p', saved = Scalar_replace.apply_innermost p in
  Alcotest.(check int) "untouched" 0 saved;
  ignore p'

let prop_scalar_replace_semantics =
  QCheck.Test.make ~name:"scalar replacement preserves semantics" ~count:30
    QCheck.(pair (int_range 2 20) (int_range 2 20))
    (fun (rows, cols) ->
      let p = fig2a ~rows ~cols () in
      let p', _ = Scalar_replace.apply_innermost p in
      semantics_equal p p' (float_init [ "a" ] (rows * cols)))

(* ----------------------------- Scheduling -------------------------- *)

let test_pack_is_permutation () =
  let open Builder in
  let p =
    program "pack"
      ~arrays:[ array_decl "a" 640; array_decl "b" 640; array_decl "o" 640 ]
      [
        loop "i" (cst 0) (cst 64)
          [
            assign "x" (arr "a" (8 *: ix "i"));
            store (aref "o" (8 *: ix "i")) (sc "x" * flt 2.0);
            assign "y" (arr "b" (8 *: ix "i"));
            store (aref "o" ((8 *: ix "i") +: cst 1)) (sc "y" * flt 3.0);
          ];
      ]
  in
  let loc = Memclust_locality.Locality.analyze ~line_size:64 p in
  let l = outer_of p in
  let packed = Schedule.pack_misses loc l.Ast.body in
  Alcotest.(check int) "same length" (List.length l.Ast.body) (List.length packed);
  (* both miss loads first *)
  (match packed with
  | first :: second :: _ ->
      Alcotest.(check bool) "first is load" true (Schedule.is_miss_load loc first);
      Alcotest.(check bool) "second is load" true (Schedule.is_miss_load loc second)
  | _ -> Alcotest.fail "too short");
  (* and semantics hold *)
  let p' = replace_nest p [ Ast.Loop { l with Ast.body = packed } ] in
  Alcotest.(check bool) "semantics" true
    (semantics_equal p p' (float_init [ "a"; "b" ] 640))

let test_pack_respects_deps () =
  let open Builder in
  (* the second load's address depends on the first store's value chain *)
  let p =
    program "dep"
      ~arrays:[ array_decl "a" 64; array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst 8)
          [
            assign "x" (arr "a" (ix "i"));
            assign "k" (Ast.Unop (Ast.Trunc, sc "x"));
            assign "y" (ld (iref "a" (sc "k")));
            store (aref "o" (ix "i")) (sc "y");
          ];
      ]
  in
  let loc = Memclust_locality.Locality.analyze ~line_size:64 p in
  let l = outer_of p in
  let packed = Schedule.pack_misses loc l.Ast.body in
  let p2 = replace_nest p [ Ast.Loop { l with Ast.body = packed } ] in
  let init d =
    for i = 0 to 63 do
      let v = Stdlib.( mod ) (Stdlib.( * ) i 7) 64 in
      Data.set d "a" i (Ast.Vfloat (float_of_int v))
    done
  in
  Alcotest.(check bool) "semantics with address chain" true (semantics_equal p p2 init)

(* The scheduler as it was before its pick loop went linear (every pick
   re-checks every predecessor list) and before its conflict test gained
   precomputed subscript shapes and name signatures. Kept as the oracle
   the current [Schedule] must agree with: conflict for conflict, list
   for list. *)
module Oracle = struct
  open Ast

  type summary = {
    s_reads : string list;
    s_writes : string list;
    s_mem_reads : (string * Affine.t option) list;
    s_mem_writes : (string * Affine.t option) list;
    s_barrier : bool;
  }

  let sites_alias (a1, i1) (a2, i2) =
    String.equal a1 a2
    &&
    match (i1, i2) with
    | Some x, Some y ->
        let shape a = Affine.sub a (Affine.const (Affine.constant a)) in
        if Affine.equal (shape x) (shape y) then Affine.constant x = Affine.constant y
        else true
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
      match r.target with
      | Direct { array; index } -> add target (array, Some index)
      | Indirect { array; index } ->
          add target (array, None);
          expr index
      | Field { region; ptr; _ } ->
          add target (region, None);
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
      | Prefetch r -> ref_ false r
      | Barrier -> barrier := true
      | If (c, t, e) ->
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
    {
      s_reads = !reads;
      s_writes = !writes;
      s_mem_reads = !mreads;
      s_mem_writes = !mwrites;
      s_barrier = !barrier;
    }

  let conflicts a b =
    a.s_barrier || b.s_barrier
    || List.exists (fun v -> List.mem v b.s_reads || List.mem v b.s_writes) a.s_writes
    || List.exists (fun v -> List.mem v b.s_writes) a.s_reads
    || List.exists
         (fun m ->
           List.exists (sites_alias m) b.s_mem_reads
           || List.exists (sites_alias m) b.s_mem_writes)
         a.s_mem_writes
    || List.exists (fun m -> List.exists (sites_alias m) b.s_mem_writes) a.s_mem_reads

  let stmts_conflict a b = conflicts (summarize a) (summarize b)
end

let pack_misses_oracle loc stmts =
  let n = List.length stmts in
  if n <= 1 then stmts
  else begin
    let arr = Array.of_list stmts in
    let sums = Array.map Oracle.summarize arr in
    let preds = Array.make n [] in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        if Oracle.conflicts sums.(j) sums.(i) then preds.(i) <- j :: preds.(i)
      done
    done;
    let emitted = Array.make n false in
    let out = ref [] in
    let ready i = (not emitted.(i)) && List.for_all (fun j -> emitted.(j)) preds.(i) in
    for _ = 0 to n - 1 do
      let pick = ref (-1) in
      (try
         for i = 0 to n - 1 do
           if ready i && Schedule.is_miss_load loc arr.(i) then begin
             pick := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pick < 0 then begin
        try
          for i = 0 to n - 1 do
            if ready i then begin
              pick := i;
              raise Exit
            end
          done
        with Exit -> ()
      end;
      assert (!pick >= 0);
      emitted.(!pick) <- true;
      out := arr.(!pick) :: !out
    done;
    List.rev !out
  end

(* the bodies [Driver]'s schedule pass reorders: those of loops and chases
   with no loop or chase inside *)
let innermost_bodies (p : Ast.program) =
  let acc = ref [] in
  let nested = List.exists (function Ast.Loop _ | Ast.Chase _ -> true | _ -> false) in
  let rec walk = function
    | Ast.Loop l -> if nested l.Ast.body then List.iter walk l.Ast.body else acc := l.Ast.body :: !acc
    | Ast.Chase c ->
        if nested c.Ast.cbody then List.iter walk c.Ast.cbody else acc := c.Ast.cbody :: !acc
    | Ast.If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
    | Ast.Assign _ | Ast.Use _ | Ast.Barrier | Ast.Prefetch _ -> ()
  in
  List.iter walk p.Ast.body;
  List.rev !acc

(* [Schedule.stmts_conflict] is the oracle's relation on every pair; the
   scheduler returns exactly the oracle's list, and that list is a
   permutation of the body keeping every conflicting pair in order. *)
let schedule_matches_oracle loc body =
  let packed = Schedule.pack_misses loc body in
  let same = List.length packed = List.length body
             && List.for_all2 ( == ) packed (pack_misses_oracle loc body) in
  let input = Array.of_list body in
  let n = Array.length input in
  let used = Array.make n false in
  (* output position -> input index, matching physically *)
  let order =
    List.map
      (fun s ->
        let rec find i =
          if i >= n then -1
          else if (not used.(i)) && input.(i) == s then begin
            used.(i) <- true;
            i
          end
          else find (i + 1)
        in
        find 0)
      packed
  in
  let permutation = List.length order = n && not (List.mem (-1) order) in
  let pos = Array.make n (-1) in
  List.iteri (fun k i -> if i >= 0 then pos.(i) <- k) order;
  let ordered = ref true and relation = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let conflict = Schedule.stmts_conflict input.(j) input.(i) in
      if conflict <> Oracle.stmts_conflict input.(j) input.(i) then relation := false;
      if j < i && conflict && pos.(j) > pos.(i) then ordered := false
    done
  done;
  same && permutation && !ordered && !relation

let accepted report =
  Memclust_cluster.Pass.Pipeline.accepted report.Memclust_cluster.Driver.trace

(* Random nests, as generated, scalar-replaced and clustered up to the
   schedule pass (unroll-and-jam and inner unrolling make the bodies
   long). *)
let prop_schedule_oracle =
  QCheck.Test.make ~name:"miss-packing matches the re-checking oracle" ~count:40
    Gen_program.arbitrary
    (fun cfg ->
      let p = Gen_program.build cfg in
      let _, report =
        Memclust_cluster.Driver.run
          ~options:{ Memclust_cluster.Driver.default_options with profile_pm = false }
          p
      in
      let clustered =
        Option.value ~default:p (List.assoc_opt "scalar-replace" (accepted report))
      in
      List.for_all
        (fun q ->
          let loc = Memclust_locality.Locality.analyze ~line_size:64 q in
          List.for_all (schedule_matches_oracle loc) (innermost_bodies q))
        [ p; fst (Scalar_replace.apply_innermost p); clustered ])

(* Same-array accesses: same shape, different constants never alias; a
   different shape may alias; irregular accesses alias everything in
   their array; another array or two reads never conflict. *)
let test_schedule_conflict_shapes () =
  let open Builder in
  let a index = aref "a" index in
  let st index = store (a index) (flt 1.0) in
  let cases =
    [
      ("a[i+1] store / a[i] load", st (ix "i" +: cst 1), assign "x" (arr "a" (ix "i")), false);
      ("a[i] store / a[i] load", st (ix "i"), assign "x" (arr "a" (ix "i")), true);
      ("a[i] store / a[2i] load", st (ix "i"), assign "x" (arr "a" (2 *: ix "i")), true);
      ("a[2i+1] store / a[2i] store", st ((2 *: ix "i") +: cst 1), st (2 *: ix "i"), false);
      ("a[i] store / a[k] load", st (ix "i"), assign "x" (ld (iref "a" (sc "k"))), true);
      ("a[i] store / b[i] load", st (ix "i"), assign "x" (arr "b" (ix "i")), false);
      ("a[i] load / a[2i] load", assign "y" (arr "a" (ix "i")), assign "x" (arr "a" (2 *: ix "i")), false);
      ("x write / x read", assign "x" (flt 1.0), assign "y" (sc "x"), true);
    ]
  in
  List.iter
    (fun (what, s1, s2, expected) ->
      Alcotest.(check bool) what expected (Schedule.stmts_conflict s1 s2);
      Alcotest.(check bool) (what ^ ", reversed") expected (Schedule.stmts_conflict s2 s1);
      Alcotest.(check bool) (what ^ ", as the oracle") (Oracle.stmts_conflict s1 s2)
        (Schedule.stmts_conflict s1 s2))
    cases

let test_schedule_oracle_fft () =
  let w = Option.get (Memclust_workloads.Registry.by_name "FFT") in
  let small =
    List.find
      (fun (w : Memclust_workloads.Workload.t) -> String.equal w.name "FFT")
      (Memclust_workloads.Registry.small ())
  in
  List.iter
    (fun (w : Memclust_workloads.Workload.t) ->
      let _, report = Memclust_cluster.Driver.run ~init:w.init w.program in
      let q = List.assoc "scalar-replace" (accepted report) in
      let loc = Memclust_locality.Locality.analyze ~line_size:64 q in
      let bodies = innermost_bodies q in
      Alcotest.(check bool)
        (w.name ^ ": unroll-and-jam made a long body")
        true
        (List.exists (fun b -> List.length b >= 64) bodies);
      List.iteri
        (fun k body ->
          Alcotest.(check bool)
            (Printf.sprintf "%s body %d (%d statements)" w.description k (List.length body))
            true
            (schedule_matches_oracle loc body))
        bodies)
    [ small; w ]

(* ---------------------------- Prefetching -------------------------- *)

let test_prefetch_preserves_semantics () =
  let p = fig2a ~rows:17 ~cols:13 () in
  let p2, added = Prefetch_pass.insert p in
  Alcotest.(check bool) "hints inserted" true (added > 0);
  Alcotest.(check bool) "prefetch is a pure hint" true
    (semantics_equal p p2 (float_init [ "a" ] (17 * 13)))

let test_prefetch_distance () =
  (* tiny body: distance = latency / (ops/width) is large *)
  let small =
    let open Builder in
    [ store (aref "a" (ix "i")) (flt 1.0) ]
  in
  let d_small = Prefetch_pass.distance_for ~latency:85 ~issue_width:4 small in
  Alcotest.(check bool) "small body -> far ahead" true (d_small >= 20);
  let big =
    let open Builder in
    List.init 30 (fun k -> store (aref "a" (ix "i" +: cst k)) (flt 1.0))
  in
  let d_big = Prefetch_pass.distance_for ~latency:85 ~issue_width:4 big in
  Alcotest.(check bool) "big body -> closer" true (d_big < d_small && d_big >= 1)

let test_prefetch_skips_chases () =
  let p = chains_program ~chains:4 ~region_nodes:50 ~count:(Some 5) in
  let _, added = Prefetch_pass.insert p in
  Alcotest.(check int) "no hints for pointer chasing" 0 added

let test_prefetch_irregular () =
  let open Builder in
  let p =
    program "irr"
      ~arrays:[ array_decl "v" 128; array_decl "idx" 128; array_decl "o" 128 ]
      [
        loop "i" (cst 0) (cst 128)
          [ store (aref "o" (ix "i")) (ld (iref "v" (arr "idx" (ix "i")))) ];
      ]
  in
  let p2, added = Prefetch_pass.insert p in
  Alcotest.(check bool) "irregular hint present" true (added >= 1);
  let init d =
    for i = 0 to 127 do
      let v = Stdlib.( mod ) (Stdlib.( * ) i 31) 128 in
      Data.set d "idx" i (Ast.Vint v);
      Data.set d "v" i (Ast.Vfloat (float_of_int i))
    done
  in
  Alcotest.(check bool) "semantics with indirect prefetch" true
    (semantics_equal p p2 init)


(* ------------------------- Balanced scheduling --------------------- *)

let test_balanced_is_permutation () =
  let open Builder in
  let p =
    program "bal"
      ~arrays:[ array_decl "a" 640; array_decl "b" 640; array_decl "o" 640 ]
      [
        loop "i" (cst 0) (cst 64)
          [
            assign "x" (arr "a" (8 *: ix "i"));
            store (aref "o" (8 *: ix "i")) (sc "x" * flt 2.0);
            assign "y" (arr "b" (8 *: ix "i"));
            store (aref "o" ((8 *: ix "i")) ) (sc "x" + sc "y");
          ];
      ]
  in
  let loc = Memclust_locality.Locality.analyze ~line_size:64 p in
  let l = outer_of p in
  let out = Balanced_sched.reorder loc l.Ast.body in
  Alcotest.(check int) "permutation" (List.length l.Ast.body) (List.length out);
  let p2 = replace_nest p [ Ast.Loop { l with Ast.body = out } ] in
  Alcotest.(check bool) "semantics" true
    (semantics_equal p p2 (float_init [ "a"; "b" ] 640))

let prop_balanced_semantics =
  QCheck.Test.make ~name:"balanced scheduling preserves semantics" ~count:40
    Gen_program.arbitrary
    (fun cfg ->
      let p = Gen_program.build cfg in
      let loc = Memclust_locality.Locality.analyze ~line_size:64 p in
      let p2 =
        Program.renumber
          { p with
            Ast.body =
              List.map
                (fun st ->
                  match st with
                  | Ast.Loop l ->
                      Ast.Loop
                        {
                          l with
                          Ast.body =
                            List.map
                              (function
                                | Ast.Loop il ->
                                    Ast.Loop
                                      { il with Ast.body = Balanced_sched.reorder loc il.Ast.body }
                                | s -> s)
                              l.Ast.body;
                        }
                  | s -> s)
                p.Ast.body;
          }
      in
      semantics_equal p p2 (Gen_program.init cfg))

let () =
  Alcotest.run "transform"
    [
      ( "subst",
        [
          Alcotest.test_case "shift var" `Quick test_shift_var;
          Alcotest.test_case "rename scalars/chase" `Quick test_rename_scalars_chase;
        ] );
      ( "legality",
        [
          Alcotest.test_case "independent rows" `Quick test_legal_independent_rows;
          Alcotest.test_case "carried dependence" `Quick test_illegal_carried;
          Alcotest.test_case "parallel override" `Quick test_parallel_overrides;
          Alcotest.test_case "GCD saves LU pattern" `Quick test_gcd_saves_lu_pattern;
          Alcotest.test_case "interchange (<,>) illegal" `Quick test_interchange_stencil_illegal;
          Alcotest.test_case "interchange legal" `Quick test_interchange_legal_and_semantics;
        ] );
      ( "unroll-and-jam",
        [
          Alcotest.test_case "exact division" `Quick test_uj_exact_division;
          Alcotest.test_case "with postlude" `Quick test_uj_with_postlude;
          Alcotest.test_case "factor 1" `Quick test_uj_factor_one;
          Alcotest.test_case "too few iterations" `Quick test_uj_too_few_iterations;
          Alcotest.test_case "carried scalar refused" `Quick test_uj_carried_scalar_refused;
          Alcotest.test_case "postlude interchanged" `Quick test_uj_postlude_interchanged;
          Alcotest.test_case "scalar renaming" `Quick test_uj_scalar_renaming;
          qtest prop_uj_semantics;
        ] );
      ( "chase jam",
        [
          Alcotest.test_case "equal counts" `Quick test_jam_equal_counts;
          Alcotest.test_case "variable lengths" `Quick test_jam_variable_lengths_guarded;
          qtest prop_jam_ragged;
        ] );
      ( "inner unroll",
        [
          Alcotest.test_case "accumulator" `Quick test_inner_unroll_semantics;
          Alcotest.test_case "privatizes temps" `Quick test_inner_unroll_privatizes_temps;
        ] );
      ( "strip-mine",
        [
          Alcotest.test_case "semantics" `Quick test_strip_mine_semantics;
          Alcotest.test_case "strip+interchange" `Quick test_strip_and_interchange;
          Alcotest.test_case "indivisible" `Quick test_strip_indivisible;
        ] );
      ( "scalar replace",
        [
          Alcotest.test_case "cse" `Quick test_scalar_replace_cse;
          Alcotest.test_case "store forward" `Quick test_scalar_replace_store_forward;
          Alcotest.test_case "aliasing safe" `Quick test_scalar_replace_aliasing_safe;
          Alcotest.test_case "irregular store skipped" `Quick test_scalar_replace_skips_irregular_store;
          qtest prop_scalar_replace_semantics;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "permutation + packing" `Quick test_pack_is_permutation;
          Alcotest.test_case "respects deps" `Quick test_pack_respects_deps;
          Alcotest.test_case "conflicts across subscript shapes" `Quick
            test_schedule_conflict_shapes;
          qtest prop_schedule_oracle;
          Alcotest.test_case "oracle on unroll-and-jammed FFT" `Quick
            test_schedule_oracle_fft;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "pure hint" `Quick test_prefetch_preserves_semantics;
          Alcotest.test_case "distance rule" `Quick test_prefetch_distance;
          Alcotest.test_case "skips chases" `Quick test_prefetch_skips_chases;
          Alcotest.test_case "irregular" `Quick test_prefetch_irregular;
        ] );
      ( "balanced scheduling",
        [
          Alcotest.test_case "permutation + semantics" `Quick test_balanced_is_permutation;
          QCheck_alcotest.to_alcotest prop_balanced_semantics;
        ] );
    ]

open Memclust_ir
open Memclust_locality

let qtest = QCheck_alcotest.to_alcotest

(* the paper's first example:
   for j: for i: b[j,2i] = b[j,2i] + a[j,i] + a[j,i-1] *)
let paper_example_1 n =
  let open Builder in
  program "ex1"
    ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "b" (Stdlib.( * ) (Stdlib.( * ) 2 n) n) ]
    [
      loop "j" (cst 0) (cst n)
        [
          loop "i" (cst 1) (cst n)
            [
              store
                (aref "b" (idx2 ~cols:(Stdlib.( * ) 2 n) (ix "j") (2 *: ix "i")))
                (arr "b" (idx2 ~cols:(Stdlib.( * ) 2 n) (ix "j") (2 *: ix "i"))
                + arr "a" (idx2 ~cols:n (ix "j") (ix "i"))
                + arr "a" (idx2 ~cols:n (ix "j") (ix "i" -: cst 1)));
            ];
        ];
    ]

let find_ref p ~array ~konst =
  let refs = Program.refs p in
  (List.find
     (fun (r : Program.ref_info) ->
       match r.ref_.target with
       | Ast.Direct { array = a; index } ->
           String.equal a array && Affine.constant index = konst
       | _ -> false)
     refs)
    .ref_.ref_id

let test_paper_example_1 () =
  let p = paper_example_1 16 in
  let loc = Locality.analyze ~line_size:64 p in
  (* a[j,i] leads; a[j,i-1] follows at distance 1 *)
  let a_i = find_ref p ~array:"a" ~konst:0 in
  let a_im1 = find_ref p ~array:"a" ~konst:(-1) in
  (match (Locality.info loc a_i).kind with
  | Locality.Leading_regular { lm = 8; self_spatial = true } -> ()
  | k -> Alcotest.failf "a[j,i]: %s" (match k with
      | Locality.Leading_regular _ -> "leading with wrong lm"
      | Locality.Leading_irregular -> "irregular"
      | Locality.Follower _ -> "follower"
      | Locality.Inner_invariant -> "invariant"));
  (match (Locality.info loc a_im1).kind with
  | Locality.Follower { leader; distance = 1 } when leader = a_i -> ()
  | _ -> Alcotest.fail "a[j,i-1] should follow a[j,i] at distance 1");
  (* b refs: stride 2 elements = 16B -> self-spatial with lm = 4 *)
  let infos = Locality.infos loc in
  let b_leaders =
    List.filter
      (fun (i : Locality.info) ->
        i.array = Some "b"
        && match i.kind with Locality.Leading_regular _ -> true | _ -> false)
      infos
  in
  Alcotest.(check int) "one b leader (load/store same element)" 1
    (List.length b_leaders);
  match (List.hd b_leaders).kind with
  | Locality.Leading_regular { lm = 4; self_spatial = true } -> ()
  | _ -> Alcotest.fail "b lm should be 4"

let test_indirect_irregular () =
  let p =
    let open Builder in
    program "ind"
      ~arrays:[ array_decl "idx" 64; array_decl "v" 64; array_decl "out" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [ store (aref "out" (ix "i")) (ld (iref "v" (arr "idx" (ix "i")))) ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let v_ref =
    List.find
      (fun (r : Program.ref_info) ->
        match r.ref_.target with Ast.Indirect _ -> true | _ -> false)
      (Program.refs p)
  in
  match (Locality.info loc v_ref.ref_.ref_id).kind with
  | Locality.Leading_irregular -> ()
  | _ -> Alcotest.fail "indirect ref must be irregular leading"

(* regression: unrolled copies touching different rows must be separate
   leading references, not same-line followers *)
let test_unrolled_rows_are_leaders () =
  let n = 64 in
  let p =
    let open Builder in
    program "rows"
      ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "s" 4 ]
      [
        loop ~step:4 "j" (cst 0) (cst n)
          [
            loop "i" (cst 0) (cst n)
              [
                assign "t0" (arr "a" (idx2 ~cols:n (ix "j") (ix "i")));
                assign "t1" (arr "a" (idx2 ~cols:n (ix "j" +: cst 1) (ix "i")));
                assign "t2" (arr "a" (idx2 ~cols:n (ix "j" +: cst 2) (ix "i")));
                store (aref "s" (cst 0)) (sc "t0" + sc "t1" + sc "t2");
              ];
          ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let leaders =
    List.filter
      (fun (i : Locality.info) ->
        i.array = Some "a"
        && match i.kind with Locality.Leading_regular _ -> true | _ -> false)
      (Locality.infos loc)
  in
  Alcotest.(check int) "three separate row streams" 3 (List.length leaders)

(* stencil rows: q[i-1,j] and q[i+1,j] reuse across the outer loop *)
let test_stencil_outer_reuse () =
  let n = 64 in
  let p =
    let open Builder in
    program "stencil"
      ~arrays:[ array_decl "q" (Stdlib.( * ) n n); array_decl "o" (Stdlib.( * ) n n) ]
      [
        loop "i" (cst 1) (cst (Stdlib.( - ) n 1))
          [
            loop "j" (cst 0) (cst n)
              [
                store (aref "o" (idx2 ~cols:n (ix "i") (ix "j")))
                  (arr "q" (idx2 ~cols:n (ix "i" -: cst 1) (ix "j"))
                  + arr "q" (idx2 ~cols:n (ix "i") (ix "j"))
                  + arr "q" (idx2 ~cols:n (ix "i" +: cst 1) (ix "j")));
              ];
          ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let q_infos =
    List.filter (fun (i : Locality.info) -> i.array = Some "q") (Locality.infos loc)
  in
  let leaders =
    List.filter
      (fun (i : Locality.info) ->
        match i.kind with Locality.Leading_regular _ -> true | _ -> false)
      q_infos
  in
  Alcotest.(check int) "one q leader" 1 (List.length leaders);
  Alcotest.(check int) "two q followers" 2
    (List.length
       (List.filter
          (fun (i : Locality.info) ->
            match i.kind with Locality.Follower _ -> true | _ -> false)
          q_infos))

let test_inner_invariant () =
  let p =
    let open Builder in
    program "inv"
      ~arrays:[ array_decl "a" 64; array_decl "s" 64 ]
      [
        loop "j" (cst 0) (cst 8)
          [
            loop "i" (cst 0) (cst 8)
              [ store (aref "s" (ix "j")) (arr "s" (ix "j") + arr "a" (idx2 ~cols:8 (ix "j") (ix "i"))) ];
          ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let s_infos =
    List.filter (fun (i : Locality.info) -> i.array = Some "s") (Locality.infos loc)
  in
  Alcotest.(check bool) "s refs inner-invariant" true
    (List.for_all
       (fun (i : Locality.info) -> i.kind = Locality.Inner_invariant)
       s_infos)

(* pointer chase: body field leads, the implicit next load follows *)
let test_chase_field_grouping () =
  let p =
    let open Builder in
    program "walk"
      ~arrays:[ array_decl "start" 4 ]
      ~regions:[ region_decl ~node_size:32 "n" 16 ]
      [
        loop "v" (cst 0) (cst 4)
          [
            assign "s" (flt 0.0);
            chase "p" ~init:(ld (aref "start" (ix "v"))) ~region:"n" ~next:0
              [ assign "s" (sc "s" + ld (fref "n" (sc "p") 2)) ];
          ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let c = List.hd (Program.chases p) in
  let data_ref =
    List.find
      (fun (r : Program.ref_info) ->
        match r.ref_.target with Ast.Field _ -> true | _ -> false)
      (Program.refs p)
  in
  (match (Locality.info loc data_ref.ref_.ref_id).kind with
  | Locality.Leading_irregular -> ()
  | _ -> Alcotest.fail "body field should lead");
  match (Locality.info loc c.Ast.next_ref_id).kind with
  | Locality.Follower { leader; distance = 0 } when leader = data_ref.ref_.ref_id -> ()
  | _ -> Alcotest.fail "next load should follow the body field (same node line)"

let test_chase_empty_body_next_leads () =
  let p =
    let open Builder in
    program "walk2"
      ~arrays:[ array_decl "start" 4 ]
      ~regions:[ region_decl ~node_size:64 "n" 16 ]
      [
        loop "v" (cst 0) (cst 4)
          [ chase "p" ~init:(ld (aref "start" (ix "v"))) ~region:"n" ~next:0 [] ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let c = List.hd (Program.chases p) in
  match (Locality.info loc c.Ast.next_ref_id).kind with
  | Locality.Leading_irregular -> ()
  | _ -> Alcotest.fail "lone next load must lead"

let test_negative_stride () =
  let p =
    let open Builder in
    program "neg"
      ~arrays:[ array_decl "a" 64; array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [ store (aref "o" (ix "i")) (arr "a" (cst 63 -: ix "i")) ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let a_info =
    List.find (fun (i : Locality.info) -> i.array = Some "a") (Locality.infos loc)
  in
  (match a_info.kind with
  | Locality.Leading_regular { lm = 8; self_spatial = true } -> ()
  | _ -> Alcotest.fail "negative stride still self-spatial");
  Alcotest.(check int) "stride bytes" (-8) a_info.stride_bytes

(* large stride: no self-spatial locality *)
let test_column_stride () =
  let n = 64 in
  let p =
    let open Builder in
    program "col"
      ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst n)
          [ store (aref "o" (cst 0)) (arr "a" (idx2 ~cols:n (ix "i") (cst 3))) ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let a_info =
    List.find (fun (i : Locality.info) -> i.array = Some "a") (Locality.infos loc)
  in
  match a_info.kind with
  | Locality.Leading_regular { lm = 1; self_spatial = false } -> ()
  | _ -> Alcotest.fail "column traversal is leading without self-spatial reuse"


let test_invariant_group_all () =
  (* several inner-invariant refs to one array stay invariant *)
  let p =
    let open Builder in
    program "invg"
      ~arrays:[ array_decl "c" 16; array_decl "o" 64 ]
      [
        loop "j" (cst 0) (cst 8)
          [
            loop "i" (cst 0) (cst 8)
              [
                store (aref "o" (idx2 ~cols:8 (ix "j") (ix "i")))
                  (arr "c" (ix "j") + arr "c" (ix "j" +: cst 1));
              ];
          ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let c_infos =
    List.filter (fun (i : Locality.info) -> i.array = Some "c") (Locality.infos loc)
  in
  Alcotest.(check int) "two refs" 2 (List.length c_infos);
  Alcotest.(check bool) "all invariant" true
    (List.for_all (fun (i : Locality.info) -> i.kind = Locality.Inner_invariant) c_infos)

let test_profile_way_conflicts () =
  (* streams 16 KB apart share the sets of the profiler's 64 KB 4-way
     cache: four streams fit a set's ways and miss once per line, a fifth
     evicts each line before its next element is read *)
  let streams n =
    let names = List.init n (Printf.sprintf "a%d") in
    let open Builder in
    program "conflicts"
      ~arrays:(List.map (fun a -> array_decl a 2048) names @ [ array_decl "o" 1 ])
      [
        assign "s" (flt 0.0);
        loop "i" (cst 0) (cst 2048)
          [ assign "s" (List.fold_left (fun e a -> e + arr a (ix "i")) (sc "s") names) ];
        store (aref "o" (cst 0)) (sc "s");
      ]
  in
  let total p =
    let t = Profile.run p (Data.create p) in
    List.fold_left
      (fun acc (r : Program.ref_info) ->
        match r.ref_.target with
        | Ast.Direct { array = "o"; _ } -> acc
        | _ -> acc + Profile.misses t r.ref_.ref_id)
      0 (Program.refs p)
  in
  Alcotest.(check int) "four streams: one miss per line" (4 * 2048 / 8) (total (streams 4));
  Alcotest.(check int) "five streams: every access misses" (5 * 2048) (total (streams 5))

(* ---------------------------- Profile ------------------------------ *)

let test_profile_stream () =
  (* streaming over 64 KB: miss once per line *)
  let p =
    let open Builder in
    program "stream"
      ~arrays:[ array_decl "a" 8192; array_decl "o" 1 ]
      [
        assign "s" (flt 0.0);
        loop "i" (cst 0) (cst 8192) [ assign "s" (sc "s" + arr "a" (ix "i")) ];
        store (aref "o" (cst 0)) (sc "s");
      ]
  in
  let d = Data.create p in
  let prof = Profile.run p d in
  let a_ref =
    (List.find
       (fun (r : Program.ref_info) ->
         match r.ref_.target with Ast.Direct { array = "a"; _ } -> true | _ -> false)
       (Program.refs p))
      .ref_.ref_id
  in
  Alcotest.(check int) "accesses" 8192 (Profile.accesses prof a_ref);
  Alcotest.(check int) "one miss per 8-element line" 1024 (Profile.misses prof a_ref);
  Alcotest.(check (float 1e-9)) "miss rate" 0.125 (Profile.miss_rate prof a_ref)

let test_profile_resident () =
  (* data fits: only cold misses *)
  let p =
    let open Builder in
    program "hot"
      ~arrays:[ array_decl "a" 64; array_decl "o" 1 ]
      [
        assign "s" (flt 0.0);
        loop "t" (cst 0) (cst 16)
          [ loop "i" (cst 0) (cst 64) [ assign "s" (sc "s" + arr "a" (ix "i")) ] ];
        store (aref "o" (cst 0)) (sc "s");
      ]
  in
  let d = Data.create p in
  let prof = Profile.run p d in
  let a_ref =
    (List.find
       (fun (r : Program.ref_info) ->
         match r.ref_.target with Ast.Direct { array = "a"; _ } -> true | _ -> false)
       (Program.refs p))
      .ref_.ref_id
  in
  Alcotest.(check int) "cold misses only" 8 (Profile.misses prof a_ref)

let test_profile_unexecuted () =
  let p =
    let open Builder in
    program "dead"
      ~arrays:[ array_decl "a" 8 ]
      [ if_ (flt 1.0 < flt 0.0) [ use (arr "a" (cst 0)) ] [] ]
  in
  let d = Data.create p in
  let prof = Profile.run p d in
  let a_ref =
    (List.find (fun (_ : Program.ref_info) -> true) (Program.refs p)).ref_.ref_id
  in
  Alcotest.(check (float 1e-9)) "unexecuted assumed 1.0" 1.0
    (Profile.miss_rate prof a_ref)

let prop_profile_doesnt_mutate =
  QCheck.Test.make ~name:"profile leaves caller data intact" ~count:20
    QCheck.small_int (fun seed ->
      let p =
        let open Builder in
        program "mut"
          ~arrays:[ array_decl "a" 32 ]
          [ loop "i" (cst 0) (cst 32) [ store (aref "a" (ix "i")) (arr "a" (ix "i") + flt 1.0) ] ]
      in
      let d = Data.create p in
      Data.set d "a" 0 (Ast.Vfloat (float_of_int seed));
      let before = Data.copy d in
      ignore (Profile.run p d);
      Data.equal before d)

let () =
  Alcotest.run "locality"
    [
      ( "classification",
        [
          Alcotest.test_case "paper example 1" `Quick test_paper_example_1;
          Alcotest.test_case "indirect irregular" `Quick test_indirect_irregular;
          Alcotest.test_case "unrolled rows lead" `Quick test_unrolled_rows_are_leaders;
          Alcotest.test_case "stencil outer reuse" `Quick test_stencil_outer_reuse;
          Alcotest.test_case "inner invariant" `Quick test_inner_invariant;
          Alcotest.test_case "chase field grouping" `Quick test_chase_field_grouping;
          Alcotest.test_case "lone next leads" `Quick test_chase_empty_body_next_leads;
          Alcotest.test_case "negative stride" `Quick test_negative_stride;
          Alcotest.test_case "column stride" `Quick test_column_stride;
          Alcotest.test_case "invariant group" `Quick test_invariant_group_all;
        ] );
      ( "profile",
        [
          Alcotest.test_case "stream" `Quick test_profile_stream;
          Alcotest.test_case "resident" `Quick test_profile_resident;
          Alcotest.test_case "unexecuted" `Quick test_profile_unexecuted;
          Alcotest.test_case "way conflicts" `Quick test_profile_way_conflicts;
          qtest prop_profile_doesnt_mutate;
        ] );
    ]

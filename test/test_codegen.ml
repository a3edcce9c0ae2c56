open Memclust_ir
open Memclust_codegen

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------ Trace ------------------------------- *)

let test_trace_roundtrip () =
  let t = Trace.create () in
  let i0 = Trace.push t ~kind:Trace.Load ~aux:4096 ~dep1:(-1) ~dep2:(-1) ~ref_:7 in
  let i1 = Trace.push t ~kind:Trace.Fp_op ~aux:3 ~dep1:i0 ~dep2:(-1) ~ref_:0 in
  Alcotest.(check int) "indices sequential" 0 i0;
  Alcotest.(check int) "indices sequential" 1 i1;
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check bool) "kind" true (Trace.kind t 0 = Trace.Load);
  Alcotest.(check int) "aux" 4096 (Trace.aux t 0);
  Alcotest.(check int) "ref" 7 (Trace.ref_id t 0);
  Alcotest.(check int) "dep1" 0 (Trace.dep1 t 1);
  Alcotest.(check int) "dep2" (-1) (Trace.dep2 t 1)

let prop_trace_growth =
  QCheck.Test.make ~name:"trace grows past initial capacity" ~count:5
    (QCheck.int_range 5000 20000) (fun n ->
      let t = Trace.create () in
      for i = 0 to n - 1 do
        ignore (Trace.push t ~kind:Trace.Int_op ~aux:i ~dep1:(i - 1) ~dep2:(-1) ~ref_:0)
      done;
      let ok = ref (Trace.length t = n) in
      for i = 0 to n - 1 do
        if Trace.aux t i <> i || Trace.dep1 t i <> i - 1 then ok := false
      done;
      !ok)

let test_count_kind () =
  let t = Trace.create () in
  ignore (Trace.push t ~kind:Trace.Load ~aux:0 ~dep1:(-1) ~dep2:(-1) ~ref_:0);
  ignore (Trace.push t ~kind:Trace.Store ~aux:0 ~dep1:(-1) ~dep2:(-1) ~ref_:0);
  ignore (Trace.push t ~kind:Trace.Load ~aux:0 ~dep1:(-1) ~dep2:(-1) ~ref_:0);
  Alcotest.(check int) "loads" 2 (Trace.count_kind t Trace.Load);
  Alcotest.(check int) "stores" 1 (Trace.count_kind t Trace.Store);
  Alcotest.(check int) "branches" 0 (Trace.count_kind t Trace.Branch)

(* a dependence must name an earlier instruction: a forward or self
   edge is a malformed trace, rejected when it is pushed *)
let test_trace_rejects_bad_deps () =
  let t = Trace.create () in
  ignore (Trace.push t ~kind:Trace.Int_op ~aux:1 ~dep1:(-1) ~dep2:(-1) ~ref_:0);
  let rejects name ~dep1 ~dep2 msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Trace.push t ~kind:Trace.Int_op ~aux:1 ~dep1 ~dep2 ~ref_:0))
  in
  let msg d =
    Printf.sprintf
      "Trace.push: instruction 1 depends on %d (must be -1 or an earlier \
       index)"
      d
  in
  rejects "forward" ~dep1:2 ~dep2:(-1) (msg 2);
  rejects "self" ~dep1:(-1) ~dep2:1 (msg 1);
  rejects "below -1" ~dep1:(-2) ~dep2:(-1) (msg (-2));
  Alcotest.(check int) "rejected pushes append nothing" 1 (Trace.length t);
  Alcotest.(check int) "earlier index accepted" 1
    (Trace.push t ~kind:Trace.Int_op ~aux:1 ~dep1:0 ~dep2:0 ~ref_:0)

(* The packed record holds the reference id in 32 bits and each
   dependence as a 32-bit distance: values that do not fit are rejected,
   not truncated. *)
let test_trace_rejects_out_of_range () =
  let t = Trace.create () in
  ignore (Trace.push t ~kind:Trace.Load ~aux:0 ~dep1:(-1) ~dep2:(-1) ~ref_:0);
  let bad_ref r =
    Alcotest.check_raises
      (Printf.sprintf "ref %d" r)
      (Invalid_argument
         (Printf.sprintf
            "Trace.push: instruction 1 has reference id %d (must be in [0, \
             2^31))"
            r))
      (fun () ->
        ignore (Trace.push t ~kind:Trace.Load ~aux:0 ~dep1:0 ~dep2:(-1) ~ref_:r))
  in
  bad_ref (-1);
  bad_ref (1 lsl 31);
  Alcotest.(check int) "largest ref accepted" 1
    (Trace.push t ~kind:Trace.Load ~aux:0 ~dep1:0 ~dep2:(-1)
       ~ref_:((1 lsl 31) - 1));
  Alcotest.(check int) "read back" ((1 lsl 31) - 1) (Trace.ref_id t 1);
  let full = Trace.create () in
  let limit = (1 lsl 31) - 1 in
  Trace.set_length_for_testing full limit;
  Alcotest.check_raises "length limit"
    (Invalid_argument
       (Printf.sprintf
          "Trace.push: instruction %d would make the trace longer than 2^31 \
           - 1 instructions"
          limit))
    (fun () ->
      ignore
        (Trace.push full ~kind:Trace.Int_op ~aux:1 ~dep1:(-1) ~dep2:(-1) ~ref_:0));
  Alcotest.(check int) "nothing appended" limit (Trace.length full)

(* One random instruction: kind code, aux, each dependence as a distance
   back (0 = none) and the reference id. *)
let gen_instr =
  let open QCheck.Gen in
  let aux =
    frequency
      [
        (1, return min_int);
        (1, return (-1));
        (1, return 0);
        (1, return max_int);
        (4, int);
      ]
  in
  let dist = oneof [ return 0; return 1; int_range 2 64; int_range 65_537 70_000 ] in
  let ref_ = frequency [ (1, return 0); (1, return ((1 lsl 31) - 1)); (4, int_bound ((1 lsl 31) - 1)) ] in
  map
    (fun (k, a, (d1, d2), r) -> (k, a, d1, d2, r))
    (quad (int_range 0 6) aux (pair dist dist) ref_)

(* Every field reads back as pushed, within the first chunk on a bare
   trace and across the first chunk boundary (65536) behind a
   61440-instruction prefix, which also makes distances above 65536
   reachable. *)
let prop_trace_fields_roundtrip =
  QCheck.Test.make ~name:"trace fields round-trip through the packed records"
    ~count:10
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "%d instructions" (List.length l))
       QCheck.Gen.(list_size (int_range 9_000 11_000) gen_instr))
    (fun instrs ->
      let check ~prefix =
        let t = Trace.create () in
        let expect = ref [] in
        let push ~kind ~aux ~dep1 ~dep2 ~ref_ =
          let i = Trace.push t ~kind ~aux ~dep1 ~dep2 ~ref_ in
          expect := (i, Trace.kind_code kind, aux, dep1, dep2, ref_) :: !expect
        in
        for i = 0 to prefix - 1 do
          push ~kind:(Trace.kind_of_code (i mod 7)) ~aux:(i - 30_000)
            ~dep1:(i - 1) ~dep2:(-1) ~ref_:i
        done;
        List.iter
          (fun (k, aux, d1, d2, ref_) ->
            let i = Trace.length t in
            let dep d = if d = 0 || d > i then -1 else i - d in
            push ~kind:(Trace.kind_of_code k) ~aux ~dep1:(dep d1)
              ~dep2:(dep d2) ~ref_)
          instrs;
        let far = ref 0 in
        let ok =
          List.for_all
            (fun (i, k, aux, d1, d2, r) ->
              if d1 >= 0 && i - d1 > 65_536 then incr far;
              Trace.kind_code (Trace.kind t i) = k
              && Trace.aux t i = aux
              && Trace.dep1 t i = d1
              && Trace.dep2 t i = d2
              && Trace.ref_id t i = r)
            !expect
        in
        ok
        && Trace.length t = prefix + List.length instrs
        && (prefix = 0 || !far > 0)
      in
      check ~prefix:0 && check ~prefix:61_440)

(* Lengths of k chunks - 1, k chunks and k chunks + 1 for k = 1..3, with
   dependences reaching back to the start of the current chunk, just
   across the previous boundary, and more than a chunk back. The first
   record of every chunk depends on the last of the one before, and the
   last record of a trace longer than a chunk reaches back more than a
   chunk, so every case crosses the boundaries it has. Every field reads
   back as pushed and [count_kind] equals a scan. *)
let prop_trace_chunk_boundaries =
  let c = Trace.chunk in
  let check rs n =
    let t = Trace.create () in
    let kinds = Array.make n 0 and auxs = Array.make n 0 in
    let d1s = Array.make n (-1) and d2s = Array.make n (-1) in
    let refs = Array.make n 0 in
    let dep i =
      let d =
        match Random.State.int rs 8 with
        | 0 -> 0
        | 1 -> 1
        | 2 -> 1 + Random.State.int rs 64
        | 3 -> (i land (c - 1)) + 1 (* the previous chunk's last record *)
        | 4 -> i land (c - 1) (* the current chunk's first record *)
        | 5 -> c
        | 6 -> c + 1 + Random.State.int rs c
        | _ -> 1 + Random.State.int rs (2 * c)
      in
      if d = 0 || d > i then -1 else i - d
    in
    for i = 0 to n - 1 do
      kinds.(i) <- Random.State.int rs 7;
      auxs.(i) <-
        (match Random.State.int rs 5 with
        | 0 -> min_int
        | 1 -> max_int
        | 2 -> -1
        | _ -> Random.State.bits rs lxor (Random.State.bits rs lsl 33));
      d1s.(i) <- (if i > 0 && i land (c - 1) = 0 then i - 1 else dep i);
      d2s.(i) <- (if i = n - 1 && i > c then i - c - 1 else dep i);
      refs.(i) <- (Random.State.bits rs * 2) + Random.State.int rs 2;
      let j =
        Trace.push t ~kind:(Trace.kind_of_code kinds.(i)) ~aux:auxs.(i)
          ~dep1:d1s.(i) ~dep2:d2s.(i) ~ref_:refs.(i)
      in
      assert (j = i)
    done;
    let fields_ok = ref (Trace.length t = n) in
    let scan = Array.make 7 0 in
    for i = 0 to n - 1 do
      let k = Trace.kind_code (Trace.kind t i) in
      scan.(k) <- scan.(k) + 1;
      if
        k <> kinds.(i)
        || Trace.aux t i <> auxs.(i)
        || Trace.dep1 t i <> d1s.(i)
        || Trace.dep2 t i <> d2s.(i)
        || Trace.ref_id t i <> refs.(i)
      then fields_ok := false
    done;
    !fields_ok
    && List.for_all
         (fun k -> Trace.count_kind t (Trace.kind_of_code k) = scan.(k))
         [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  QCheck.Test.make ~name:"trace fields and kind counts across chunk boundaries"
    ~count:2
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      List.for_all
        (fun k -> List.for_all (fun d -> check rs ((k * c) + d)) [ -1; 0; 1 ])
        [ 1; 2; 3 ])

(* ------------------------------ Lower ------------------------------- *)

let stream_program n =
  let open Builder in
  program "stream"
    ~arrays:[ array_decl "a" n; array_decl "o" n ]
    [
      loop "i" (cst 0) (cst n)
        [ store (aref "o" (ix "i")) (arr "a" (ix "i") + flt 1.0) ];
    ]

let test_lower_counts () =
  let n = 16 in
  let p = stream_program n in
  let d = Data.create p in
  let lowered = Lower.build p d in
  Alcotest.(check int) "one trace" 1 (Array.length lowered.Lower.traces);
  let t = lowered.Lower.traces.(0) in
  Alcotest.(check int) "one load per iteration" n (Trace.count_kind t Trace.Load);
  Alcotest.(check int) "one store per iteration" n (Trace.count_kind t Trace.Store);
  Alcotest.(check int) "one branch per iteration" n (Trace.count_kind t Trace.Branch);
  Alcotest.(check int) "no barriers uniprocessor" 0 lowered.Lower.barriers

let test_lower_addresses () =
  let n = 8 in
  let p = stream_program n in
  let d = Data.create p in
  let base_a = Data.array_base d "a" in
  let lowered = Lower.build p d in
  let t = lowered.Lower.traces.(0) in
  let load_addrs = ref [] in
  for i = 0 to Trace.length t - 1 do
    if Trace.kind t i = Trace.Load then load_addrs := Trace.aux t i :: !load_addrs
  done;
  let expect = List.init n (fun i -> base_a + (8 * i)) in
  Alcotest.(check (list int)) "load addresses in order" expect (List.rev !load_addrs)

let test_lower_chase_serialized () =
  (* each next load must depend on the previous one *)
  let p =
    let open Builder in
    program "chain"
      ~arrays:[ array_decl "start" 1 ]
      ~regions:[ region_decl ~node_size:64 "n" 8 ]
      [
        chase "p" ~init:(ld (aref "start" (cst 0))) ~region:"n" ~next:0
          ~count:(cst 6) [];
      ]
  in
  let d = Data.create p in
  Data.set d "start" 0 (Data.node_ptr d "n" 0);
  for k = 0 to 7 do
    Data.field_set d "n" ~ptr:(Data.node_addr d "n" k) ~field:0
      (Data.node_ptr d "n" ((k + 1) mod 8))
  done;
  let lowered = Lower.build p d in
  let t = lowered.Lower.traces.(0) in
  let loads = ref [] in
  for i = 0 to Trace.length t - 1 do
    if Trace.kind t i = Trace.Load then loads := i :: !loads
  done;
  let loads = List.rev !loads in
  Alcotest.(check int) "start + 6 next loads" 7 (List.length loads);
  (* every next load depends on the previous load *)
  List.iteri
    (fun k idx ->
      if k > 0 then begin
        let prev = List.nth loads (k - 1) in
        Alcotest.(check int) (Printf.sprintf "load %d dep" k) prev (Trace.dep1 t idx)
      end)
    loads

let test_lower_multiproc () =
  let n = 16 in
  let p =
    let open Builder in
    program "par"
      ~arrays:[ array_decl "a" n; array_decl "o" n ]
      [
        loop ~parallel:true "i" (cst 0) (cst n)
          [ store (aref "o" (ix "i")) (arr "a" (ix "i") + flt 1.0) ];
        Ast.Barrier;
      ]
  in
  let d = Data.create p in
  let lowered = Lower.build ~nprocs:4 p d in
  Alcotest.(check int) "4 traces" 4 (Array.length lowered.Lower.traces);
  (* work split evenly: each proc has n/4 loads *)
  Array.iteri
    (fun pi t ->
      Alcotest.(check int)
        (Printf.sprintf "proc %d loads" pi)
        (n / 4)
        (Trace.count_kind t Trace.Load))
    lowered.Lower.traces;
  (* two barriers (implicit after the parallel loop + explicit) on every proc *)
  Array.iter
    (fun t ->
      Alcotest.(check int) "barriers per proc" 2 (Trace.count_kind t Trace.Barrier_op))
    lowered.Lower.traces;
  Alcotest.(check int) "barrier count" 2 lowered.Lower.barriers;
  Alcotest.(check int) "total instructions add up"
    (Lower.total_instructions lowered)
    (Array.fold_left (fun acc t -> acc + Trace.length t) 0 lowered.Lower.traces)

let test_lower_cross_proc_deps_dropped () =
  (* a scalar defined before the parallel loop is used inside it: the
     consumer must not carry a dependence into another processor's trace *)
  let p =
    let open Builder in
    program "crossdep"
      ~arrays:[ array_decl "a" 8; array_decl "o" 8 ]
      [
        assign "c" (arr "a" (cst 0));
        loop ~parallel:true "i" (cst 0) (cst 8)
          [ store (aref "o" (ix "i")) (sc "c" + arr "a" (ix "i")) ];
      ]
  in
  let d = Data.create p in
  let lowered = Lower.build ~nprocs:2 p d in
  (* proc 1's trace: every dep index must point inside its own trace *)
  let t = lowered.Lower.traces.(1) in
  let ok = ref true in
  for i = 0 to Trace.length t - 1 do
    if Trace.dep1 t i >= i || Trace.dep2 t i >= i then ok := false
  done;
  Alcotest.(check bool) "deps are local and backward" true !ok


(* a dependence token packs the processor into 6 bits *)
let test_lower_rejects_nprocs () =
  let p = stream_program 4 in
  List.iter
    (fun nprocs ->
      Alcotest.check_raises
        (Printf.sprintf "%d processors" nprocs)
        (Invalid_argument
           (Printf.sprintf "Lower.build: %d processors (must be in [1, 63])"
              nprocs))
        (fun () -> ignore (Lower.build ~nprocs p (Data.create p))))
    [ 0; -1; 64 ];
  Alcotest.(check int) "63 processors accepted" 63
    (Array.length (Lower.build ~nprocs:63 p (Data.create p)).Lower.traces)

let test_tracestats () =
  let n = 8 in
  let p = stream_program n in
  let d = Data.create p in
  let lowered = Lower.build p d in
  let st = Tracestats.of_lowered lowered in
  Alcotest.(check int) "loads" n st.Tracestats.loads;
  Alcotest.(check int) "stores" n st.Tracestats.stores;
  Alcotest.(check int) "branches" n st.Tracestats.branches;
  Alcotest.(check int) "total adds up"
    (Lower.total_instructions lowered)
    st.Tracestats.total;
  (* a and o are 64 B each: two lines *)
  Alcotest.(check int) "distinct lines" 2 st.Tracestats.distinct_lines


let prop_kind_roundtrip =
  QCheck.Test.make ~name:"trace kind codes roundtrip" ~count:50
    (QCheck.int_range 0 6) (fun c ->
      Trace.kind_code (Trace.kind_of_code c) = c)

let () =
  Alcotest.run "codegen"
    [
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          qtest prop_kind_roundtrip;
          qtest prop_trace_growth;
          Alcotest.test_case "count kind" `Quick test_count_kind;
          Alcotest.test_case "rejects forward and self dependences" `Quick
            test_trace_rejects_bad_deps;
          Alcotest.test_case "rejects out-of-range ref and length" `Quick
            test_trace_rejects_out_of_range;
          qtest prop_trace_fields_roundtrip;
          qtest prop_trace_chunk_boundaries;
        ] );
      ( "lower",
        [
          Alcotest.test_case "instruction counts" `Quick test_lower_counts;
          Alcotest.test_case "addresses" `Quick test_lower_addresses;
          Alcotest.test_case "chase serialization" `Quick test_lower_chase_serialized;
          Alcotest.test_case "multiprocessor split" `Quick test_lower_multiproc;
          Alcotest.test_case "cross-proc deps dropped" `Quick test_lower_cross_proc_deps_dropped;
          Alcotest.test_case "tracestats" `Quick test_tracestats;
          Alcotest.test_case "rejects processor counts outside [1, 63]" `Quick
            test_lower_rejects_nprocs;
        ] );
    ]

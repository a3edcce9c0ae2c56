open Memclust_ir
open Memclust_locality
open Memclust_workloads

(* scaled-down instances so the suite stays fast *)
let small () =
  [
    Latbench.make ~chains:8 ~derefs:32 ();
    Em3d.make ~nodes:256 ~degree:4 ();
    Erlebacher.make ~n:8 ();
    Fft.make ~m:16 ();
    Lu.make ~n:32 ~block:8 ();
    Mp3d.make ~particles:256 ~cells_per_side:4 ~steps:1 ();
    Mst.make ~vertices:64 ~buckets:16 ~nodes:128 ();
    Ocean.make ~n:18 ~iters:1 ();
  ]

let test_validates (w : Workload.t) () =
  match Program.validate w.Workload.program with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_executes (w : Workload.t) () =
  let d = Data.create w.Workload.program in
  w.Workload.init d;
  Exec.run ~max_ops:50_000_000 w.Workload.program d

let test_deterministic (w : Workload.t) () =
  let d1 = Data.create w.Workload.program in
  let d2 = Data.create w.Workload.program in
  w.Workload.init d1;
  w.Workload.init d2;
  Alcotest.(check bool) "init deterministic" true (Data.equal d1 d2);
  Exec.run w.Workload.program d1;
  Exec.run w.Workload.program d2;
  Alcotest.(check bool) "execution deterministic" true (Data.equal d1 d2)

let per_workload () =
  List.concat_map
    (fun w ->
      [
        Alcotest.test_case (w.Workload.name ^ " validates") `Quick (test_validates w);
        Alcotest.test_case (w.Workload.name ^ " executes") `Quick (test_executes w);
        Alcotest.test_case (w.Workload.name ^ " deterministic") `Quick
          (test_deterministic w);
      ])
    (small ())

(* ------------------- structural expectations ----------------------- *)

let test_registry () =
  Alcotest.(check int) "seven applications" 7 (List.length (Registry.applications ()));
  Alcotest.(check bool) "lookup case-insensitive" true
    (Registry.by_name "em3d" <> None);
  Alcotest.(check bool) "latbench found" true (Registry.by_name "Latbench" <> None);
  Alcotest.(check bool) "unknown none" true (Registry.by_name "nope" = None)

let test_latbench_all_miss () =
  (* shuffled chains: virtually every dereference misses *)
  let w = Latbench.make ~chains:8 ~derefs:64 () in
  let d = Data.create w.Workload.program in
  w.Workload.init d;
  let prof = Profile.run w.Workload.program d in
  let c = List.hd (Program.chases w.Workload.program) in
  Alcotest.(check bool) "miss rate ~1" true
    (Profile.miss_rate prof c.Ast.next_ref_id > 0.95)

let test_latbench_chain_lengths () =
  let w = Latbench.make ~chains:4 ~derefs:16 () in
  let d = Data.create w.Workload.program in
  w.Workload.init d;
  (* walking each chain takes exactly derefs steps before null *)
  for j = 0 to 3 do
    let rec walk p n =
      if p = 0 then n
      else
        match Data.field_get d "nodes" ~ptr:p ~field:0 with
        | Ast.Vptr next -> walk next (n + 1)
        | _ -> Alcotest.fail "next not a pointer"
    in
    match Data.get d "starts" j with
    | Ast.Vptr p -> Alcotest.(check int) "chain length" 16 (walk p 0)
    | _ -> Alcotest.fail "start not a pointer"
  done

let test_em3d_remote_fraction () =
  let nodes = 1024 and degree = 8 in
  let w = Em3d.make ~nodes ~degree ~remote_pct:20 () in
  let d = Data.create w.Workload.program in
  w.Workload.init d;
  (* with 16-processor partitioning, ~20% of eidx entries leave the
     owner's chunk (local picks can also cross by chance, so allow slack) *)
  let chunk = (nodes + 15) / 16 in
  let crossing = ref 0 in
  let total = nodes * degree in
  for e = 0 to total - 1 do
    let n = e / degree in
    match Data.get d "eidx" e with
    | Ast.Vint target -> if target / chunk <> n / chunk then incr crossing
    | _ -> Alcotest.fail "eidx not int"
  done;
  let frac = float_of_int !crossing /. float_of_int total in
  Alcotest.(check bool) "remote fraction near 20%" true (frac > 0.1 && frac < 0.35)

let test_mst_buckets_nonempty () =
  let w = Mst.make ~vertices:32 ~buckets:8 ~nodes:64 () in
  let d = Data.create w.Workload.program in
  w.Workload.init d;
  for b = 0 to 7 do
    match Data.get d "heads" b with
    | Ast.Vptr p -> Alcotest.(check bool) "bucket nonempty" true (p <> 0)
    | _ -> Alcotest.fail "head not pointer"
  done

let test_mp3d_padded_records () =
  let w = Mp3d.make ~particles:16 ~cells_per_side:4 ~steps:1 () in
  let loc = Locality.analyze ~line_size:64 w.Workload.program in
  (* every particle-field load shares one leading reference per record *)
  let part_leaders =
    List.filter
      (fun (i : Locality.info) ->
        i.Locality.array = Some "part"
        && (not i.Locality.is_store)
        && match i.Locality.kind with Locality.Leading_regular _ -> true | _ -> false)
      (Locality.infos loc)
  in
  Alcotest.(check int) "one leading load per padded record" 1
    (List.length part_leaders)

let test_ocean_row_alignment () =
  let w = Ocean.make ~n:18 ~iters:1 () in
  let d = Data.create w.Workload.program in
  (* padded pitch: consecutive rows are whole cache lines apart *)
  let row_bytes = Data.array_bytes d "q" / 18 in
  Alcotest.(check int) "row pitch is line-aligned" 0 (row_bytes mod 64)

let test_table2_scaling () =
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool)
        (w.Workload.name ^ " has paper-consistent procs")
        true
        (match w.Workload.name with
        | "Latbench" | "MST" -> w.Workload.mp_procs = 1
        | "LU" | "Mp3d" | "Ocean" | "Erlebacher" -> w.Workload.mp_procs = 8
        | _ -> w.Workload.mp_procs = 16))
    (Registry.latbench () :: Registry.applications ())

let () =
  Alcotest.run "workloads"
    [
      ("each", per_workload ());
      ( "structure",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "latbench all-miss" `Quick test_latbench_all_miss;
          Alcotest.test_case "latbench chains" `Quick test_latbench_chain_lengths;
          Alcotest.test_case "em3d remote edges" `Quick test_em3d_remote_fraction;
          Alcotest.test_case "mst buckets" `Quick test_mst_buckets_nonempty;
          Alcotest.test_case "mp3d padding" `Quick test_mp3d_padded_records;
          Alcotest.test_case "ocean row alignment" `Quick test_ocean_row_alignment;
          Alcotest.test_case "table2 scaling" `Quick test_table2_scaling;
        ] );
    ]

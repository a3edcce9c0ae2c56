open Memclust_codegen
open Memclust_sim

(* ------------------------------ Cache ------------------------------- *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~bytes:1024 ~assoc:2 ~line:64 in
  Alcotest.(check bool) "cold miss" false (Cache.lookup c ~version:0 ~addr:128);
  Cache.fill c ~version:0 ~addr:128;
  Alcotest.(check bool) "hit" true (Cache.lookup c ~version:0 ~addr:128);
  Alcotest.(check bool) "same line hits" true (Cache.lookup c ~version:0 ~addr:190);
  Alcotest.(check bool) "next line misses" false (Cache.lookup c ~version:0 ~addr:192)

let test_cache_version_invalidation () =
  let c = Cache.create ~bytes:1024 ~assoc:2 ~line:64 in
  Cache.fill c ~version:1 ~addr:0;
  Alcotest.(check bool) "hit at v1" true (Cache.lookup c ~version:1 ~addr:0);
  Alcotest.(check bool) "stale at v2" false (Cache.lookup c ~version:2 ~addr:0);
  Cache.fill c ~version:2 ~addr:0;
  Alcotest.(check bool) "refreshed" true (Cache.lookup c ~version:2 ~addr:0)

let test_cache_lru () =
  (* 2-way set: fill three lines mapping to the same set; the LRU evicts *)
  let c = Cache.create ~bytes:256 ~assoc:2 ~line:64 in
  (* 2 sets; lines 0,2,4 map to set 0 *)
  Cache.fill c ~version:0 ~addr:0;
  Cache.fill c ~version:0 ~addr:128;
  ignore (Cache.lookup c ~version:0 ~addr:0);
  (* line 0 is MRU *)
  Cache.fill c ~version:0 ~addr:256;
  Alcotest.(check bool) "MRU kept" true (Cache.lookup c ~version:0 ~addr:0);
  Alcotest.(check bool) "LRU evicted" false (Cache.lookup c ~version:0 ~addr:128);
  Alcotest.(check bool) "new line present" true (Cache.lookup c ~version:0 ~addr:256)

let test_cache_direct_mapped_conflict () =
  let c = Cache.create ~bytes:128 ~assoc:1 ~line:64 in
  Cache.fill c ~version:0 ~addr:0;
  Cache.fill c ~version:0 ~addr:128 (* same set *);
  Alcotest.(check bool) "conflict evicts" false (Cache.lookup c ~version:0 ~addr:0)

(* ------------------------------ Memsys ------------------------------ *)

let test_memsys_uncontended () =
  let m = Memsys.create Config.base ~nprocs:2 in
  let done_ = Memsys.request m ~proc:0 ~home:0 ~kind:Memsys.Local ~line:1 ~now:100 in
  Alcotest.(check int) "local = mem_lat" (100 + Config.base.Config.mem_lat) done_;
  let m = Memsys.create Config.base ~nprocs:2 in
  let done_ = Memsys.request m ~proc:0 ~home:1 ~kind:Memsys.Remote ~line:1 ~now:100 in
  Alcotest.(check int) "remote = minimum + 1 hop"
    (100 + Config.base.Config.remote_lat + Config.base.Config.hop_cycles)
    done_;
  let m = Memsys.create Config.base ~nprocs:2 in
  let done_ =
    Memsys.request m ~proc:0 ~home:1 ~kind:Memsys.Dirty_remote ~line:1 ~now:100
  in
  Alcotest.(check int) "cache-to-cache = minimum + 1 hop"
    (100 + Config.base.Config.c2c_lat + Config.base.Config.hop_cycles)
    done_

let test_memsys_bank_contention () =
  let m = Memsys.create Config.base ~nprocs:1 in
  (* two requests to the same line = same bank: the second waits *)
  let d1 = Memsys.request m ~proc:0 ~home:0 ~kind:Memsys.Local ~line:5 ~now:0 in
  let d2 = Memsys.request m ~proc:0 ~home:0 ~kind:Memsys.Local ~line:5 ~now:0 in
  Alcotest.(check bool) "second delayed" true (d2 > d1);
  Alcotest.(check bool) "delay at least bank busy" true
    (d2 - d1 >= Config.base.Config.bank_busy)

let test_memsys_banks_parallel () =
  let m = Memsys.create Config.base ~nprocs:1 in
  (* requests to different banks overlap except for bus occupancy *)
  let lines = List.init 4 (fun i -> i) in
  let dones =
    List.map (fun l -> Memsys.request m ~proc:0 ~home:0 ~kind:Memsys.Local ~line:l ~now:0) lines
  in
  let spread = List.fold_left max 0 dones - List.fold_left min max_int dones in
  Alcotest.(check bool) "different banks mostly overlap" true
    (spread < Config.base.Config.bank_busy)


let test_mesh_hops () =
  (* 16 nodes on a 4x4 mesh *)
  Alcotest.(check int) "self" 0 (Memsys.mesh_hops ~nprocs:16 5 5);
  Alcotest.(check int) "adjacent" 1 (Memsys.mesh_hops ~nprocs:16 0 1);
  Alcotest.(check int) "row hop" 1 (Memsys.mesh_hops ~nprocs:16 0 4);
  Alcotest.(check int) "corner to corner" 6 (Memsys.mesh_hops ~nprocs:16 0 15)

let test_remote_scales_with_distance () =
  let m = Memsys.create Config.base ~nprocs:16 in
  let near = Memsys.request m ~proc:0 ~home:1 ~kind:Memsys.Remote ~line:1 ~now:0 in
  let m = Memsys.create Config.base ~nprocs:16 in
  let far = Memsys.request m ~proc:0 ~home:15 ~kind:Memsys.Remote ~line:1 ~now:0 in
  Alcotest.(check int) "five extra hops" (5 * Config.base.Config.hop_cycles)
    (far - near)

let test_memsys_utilization () =
  let m = Memsys.create Config.base ~nprocs:1 in
  ignore (Memsys.request m ~proc:0 ~home:0 ~kind:Memsys.Local ~line:0 ~now:0);
  let occ = Config.base.Config.bus_req_occ + Config.base.Config.bus_data_occ in
  Alcotest.(check int) "bus busy accounted" occ (Memsys.bus_busy m);
  Alcotest.(check int) "bank busy accounted" Config.base.Config.bank_busy
    (Memsys.bank_busy m)

(* ---------------------------- Breakdown ----------------------------- *)

let test_breakdown () =
  let b = Breakdown.create () in
  b.Breakdown.busy <- 10.0;
  b.Breakdown.data_stall <- 30.0;
  b.Breakdown.cpu_stall <- 5.0;
  Alcotest.(check (float 1e-9)) "total" 45.0 (Breakdown.total b);
  Alcotest.(check (float 1e-9)) "cpu" 15.0 (Breakdown.cpu b);
  let c = Breakdown.scale b 2.0 in
  Alcotest.(check (float 1e-9)) "scaled" 90.0 (Breakdown.total c);
  Breakdown.add b c;
  Alcotest.(check (float 1e-9)) "added" 135.0 (Breakdown.total b)

(* --------------------------- Core/Machine --------------------------- *)

(* hand-built traces *)
let mk_trace instrs =
  let t = Trace.create () in
  List.iter
    (fun (kind, aux, dep1, dep2) ->
      ignore (Trace.push t ~kind ~aux ~dep1 ~dep2 ~ref_:0))
    instrs;
  t

let run_single instrs =
  let lowered = { Lower.traces = [| mk_trace instrs |]; barriers = 0 } in
  Machine.run Config.base ~home:(fun _ -> 0) lowered

let test_single_miss_latency () =
  let r = run_single [ (Trace.Load, 0x40000, -1, -1) ] in
  Alcotest.(check bool) "about mem_lat cycles" true
    (r.Machine.cycles >= Config.base.Config.mem_lat
    && r.Machine.cycles <= Config.base.Config.mem_lat + 20);
  Alcotest.(check int) "one L2 miss" 1 r.Machine.l2_misses

let test_independent_misses_overlap () =
  (* 8 independent misses to distinct lines *)
  let loads = List.init 8 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) in
  let r = run_single loads in
  Alcotest.(check bool) "overlapped" true
    (r.Machine.cycles < 2 * Config.base.Config.mem_lat);
  Alcotest.(check int) "8 misses" 8 r.Machine.l2_misses

let test_dependent_misses_serialize () =
  (* each load depends on the previous *)
  let loads =
    List.init 4 (fun i -> (Trace.Load, 0x40000 + (i * 64), i - 1, -1))
  in
  let r = run_single loads in
  Alcotest.(check bool) "serialized" true
    (r.Machine.cycles >= 4 * Config.base.Config.mem_lat)

let test_same_line_coalesce () =
  let loads = List.init 8 (fun i -> (Trace.Load, 0x40000 + (i * 8), -1, -1)) in
  let r = run_single loads in
  Alcotest.(check int) "one miss for one line" 1 r.Machine.l2_misses

let test_store_retires_early () =
  (* store miss followed by lots of cheap work: write buffering hides it *)
  let instrs =
    (Trace.Store, 0x40000, -1, -1)
    :: List.init 40 (fun _ -> (Trace.Int_op, 1, -1, -1))
  in
  let r = run_single instrs in
  (* all instructions retire long before the write completes; the clock
     only runs on because the simulation waits for memory to quiesce *)
  Alcotest.(check bool) "ends soon after the write completes" true
    (r.Machine.cycles < Config.base.Config.mem_lat + 30);
  (* at most the 1-2 front-end cycles before the store enters the write
     buffer; the 85-cycle miss itself never stalls retirement *)
  Alcotest.(check bool) "write miss latency never stalls retire" true
    (r.Machine.breakdown.Breakdown.data_stall < 3.0)

let test_mshr_limit () =
  (* 20 independent misses with only 10 MSHRs: at least two memory rounds *)
  let loads = List.init 20 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) in
  let r = run_single loads in
  Alcotest.(check bool) "two waves" true
    (r.Machine.cycles >= 2 * Config.base.Config.bank_busy + Config.base.Config.mem_lat);
  Alcotest.(check bool) "mshr pressure observed" true (r.Machine.mshr_full_events > 0)

let test_window_limits_overlap () =
  (* two misses separated by more than a window of int ops cannot overlap *)
  let instrs =
    ((Trace.Load, 0x40000, -1, -1)
     :: List.init 100 (fun _ -> (Trace.Int_op, 1, -1, -1)))
    @ [ (Trace.Load, 0x50000, -1, -1) ]
  in
  let r = run_single instrs in
  Alcotest.(check bool) "misses not overlapped" true
    (r.Machine.cycles >= 2 * Config.base.Config.mem_lat)

let test_ipc_bounded_by_retire_width () =
  let instrs = List.init 4000 (fun _ -> (Trace.Int_op, 1, -1, -1)) in
  let r = run_single instrs in
  let ipc = float_of_int r.Machine.instructions /. float_of_int r.Machine.cycles in
  Alcotest.(check bool) "IPC <= 4" true (ipc <= 4.0);
  (* only 2 ALUs: IPC can't exceed 2 for pure int streams *)
  Alcotest.(check bool) "IPC <= ALUs" true (ipc <= 2.01)

let test_barrier_sync () =
  (* proc 0 finishes fast then waits at the barrier for proc 1's miss *)
  let t0 =
    mk_trace [ (Trace.Int_op, 1, -1, -1); (Trace.Barrier_op, 1, -1, -1) ]
  in
  let t1 =
    mk_trace
      [
        (Trace.Load, 0x40000, -1, -1);
        (Trace.Load, 0x50000, 0, -1);
        (Trace.Barrier_op, 1, -1, -1);
      ]
  in
  let lowered = { Lower.traces = [| t0; t1 |]; barriers = 1 } in
  let r = Machine.run Config.base ~home:(fun _ -> 0) lowered in
  Alcotest.(check bool) "proc0 spent time in sync" true
    (r.Machine.per_proc.(0).Breakdown.sync_stall > 50.0);
  Alcotest.(check bool) "completed" true
    (r.Machine.cycles >= 2 * Config.base.Config.mem_lat)

let test_mshr_histograms () =
  let loads = List.init 8 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) in
  let r = run_single loads in
  let open Memclust_util in
  Alcotest.(check bool) "some time at >=4 outstanding reads" true
    (Stats.Histogram.fraction_at_least r.Machine.read_mshr_hist 4 > 0.0);
  Alcotest.(check bool) "monotone" true
    (Stats.Histogram.fraction_at_least r.Machine.read_mshr_hist 8
    <= Stats.Histogram.fraction_at_least r.Machine.read_mshr_hist 1)

let test_deadlock_guard () =
  let loads = List.init 4 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) in
  let lowered = { Lower.traces = [| mk_trace loads |]; barriers = 0 } in
  Alcotest.(check bool) "raises on tiny budget" true
    (try
       ignore (Machine.run ~max_cycles:3 Config.base ~home:(fun _ -> 0) lowered);
       false
     with Memclust_util.Error.Error (Memclust_util.Error.Sim_deadlock _) ->
       true)

let test_config_presets () =
  Alcotest.(check int) "ghz doubles memory" (2 * Config.base.Config.mem_lat)
    (Config.ghz Config.base).Config.mem_lat;
  Alcotest.(check int) "ghz keeps width" Config.base.Config.issue_width
    (Config.ghz Config.base).Config.issue_width;
  Alcotest.(check int) "exemplar is single-level" 1
    (Config.depth Config.exemplar_like);
  Alcotest.(check int) "base is two-level" 2 (Config.depth Config.base);
  Alcotest.(check int) "base line 64B" 64 (Config.line Config.base);
  Alcotest.(check int) "exemplar line 32B" 32 (Config.line Config.exemplar_like);
  Alcotest.(check int) "base lp = 10" 10 (Config.lp Config.base);
  let resized = Config.with_l2 (256 * 1024) Config.base in
  Alcotest.(check int) "with_l2 keeps depth" 2 (Config.depth resized);
  Alcotest.(check int) "with_l2 resizes the last level" (256 * 1024)
    (List.nth (Config.levels resized) 1).Config.bytes;
  Alcotest.(check int) "with_mshrs caps lp" 4
    (Config.lp (Config.with_mshrs 4 Config.base));
  Alcotest.(check int) "with_line resets every level" 128
    (Config.line (Config.with_line 128 Config.base));
  Alcotest.(check (float 1e-9)) "ns per cycle at 500MHz" 2.0
    (Machine.ns_per_cycle Config.base)


(* ----------------------------- Prefetch ----------------------------- *)

let test_prefetch_hides_latency () =
  (* prefetch, then a 100-deep dependence chain, then a load of the
     prefetched line that depends on the chain: by the time the load can
     issue, the line has arrived *)
  let chain = List.init 100 (fun i -> (Trace.Int_op, 1, i, -1)) in
  let instrs =
    ((Trace.Prefetch_op, 0x40000, -1, -1) :: chain)
    @ [ (Trace.Load, 0x40000, 100, -1) ]
  in
  let r = run_single instrs in
  Alcotest.(check int) "one prefetch" 1 r.Machine.prefetches;
  Alcotest.(check int) "fetched by the prefetch" 1 r.Machine.prefetch_misses;
  Alcotest.(check int) "demand load did not miss" 0 r.Machine.read_misses;
  Alcotest.(check bool) "latency mostly hidden" true
    (r.Machine.breakdown.Breakdown.data_stall
     < float_of_int Config.base.Config.mem_lat /. 2.0)

let test_prefetch_late () =
  (* demand load immediately after the prefetch: late-prefetch counted *)
  let instrs = [ (Trace.Prefetch_op, 0x40000, -1, -1); (Trace.Load, 0x40000, -1, -1) ] in
  let r = run_single instrs in
  Alcotest.(check int) "late prefetch counted" 1 r.Machine.late_prefetches;
  Alcotest.(check int) "no separate demand miss" 0 r.Machine.read_misses

let test_prefetch_never_stalls_retire () =
  let instrs = List.init 12 (fun i -> (Trace.Prefetch_op, 0x40000 + (i * 64), -1, -1)) in
  let r = run_single instrs in
  (* 12 hints on 10 MSHRs: the extra ones are dropped, nothing stalls *)
  Alcotest.(check bool) "no data stall from hints" true
    (r.Machine.breakdown.Breakdown.data_stall < 3.0);
  Alcotest.(check bool) "drops under pressure" true (r.Machine.prefetch_misses <= 10)


(* ----------------- Event-mode / cycle-mode equivalence --------------- *)

(* The event-driven loop claims bit-identical results to the reference
   cycle loop — so every comparison below is exact (epsilon 0). *)

let check_breakdown name (a : Breakdown.t) (b : Breakdown.t) =
  Alcotest.(check (float 0.0)) (name ^ ": busy") a.Breakdown.busy b.Breakdown.busy;
  Alcotest.(check (float 0.0))
    (name ^ ": cpu_stall") a.Breakdown.cpu_stall b.Breakdown.cpu_stall;
  Alcotest.(check (float 0.0))
    (name ^ ": data_stall") a.Breakdown.data_stall b.Breakdown.data_stall;
  Alcotest.(check (float 0.0))
    (name ^ ": sync_stall") a.Breakdown.sync_stall b.Breakdown.sync_stall

let check_hist name a b =
  let open Memclust_util in
  Alcotest.(check (float 0.0))
    (name ^ ": total") (Stats.Histogram.total a) (Stats.Histogram.total b);
  for k = 0 to 64 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%s: fraction >= %d" name k)
      (Stats.Histogram.fraction_at_least a k)
      (Stats.Histogram.fraction_at_least b k)
  done

let check_results_equal (a : Machine.result) (b : Machine.result) =
  Alcotest.(check int) "cycles" a.Machine.cycles b.Machine.cycles;
  Alcotest.(check int) "instructions" a.Machine.instructions b.Machine.instructions;
  Alcotest.(check int) "l2_misses" a.Machine.l2_misses b.Machine.l2_misses;
  Alcotest.(check int) "read_misses" a.Machine.read_misses b.Machine.read_misses;
  Alcotest.(check int) "l1_misses" a.Machine.l1_misses b.Machine.l1_misses;
  Alcotest.(check int) "mshr_full_events" a.Machine.mshr_full_events
    b.Machine.mshr_full_events;
  Alcotest.(check int) "wbuf_full_events" a.Machine.wbuf_full_events
    b.Machine.wbuf_full_events;
  Alcotest.(check int) "prefetches" a.Machine.prefetches b.Machine.prefetches;
  Alcotest.(check int) "prefetch_misses" a.Machine.prefetch_misses
    b.Machine.prefetch_misses;
  Alcotest.(check int) "late_prefetches" a.Machine.late_prefetches
    b.Machine.late_prefetches;
  Alcotest.(check (float 0.0)) "avg_read_miss_latency"
    a.Machine.avg_read_miss_latency b.Machine.avg_read_miss_latency;
  Alcotest.(check (float 0.0)) "bus_utilization" a.Machine.bus_utilization
    b.Machine.bus_utilization;
  Alcotest.(check (float 0.0)) "bank_utilization" a.Machine.bank_utilization
    b.Machine.bank_utilization;
  check_breakdown "breakdown" a.Machine.breakdown b.Machine.breakdown;
  Alcotest.(check int) "nprocs"
    (Array.length a.Machine.per_proc) (Array.length b.Machine.per_proc);
  Array.iteri
    (fun i bd -> check_breakdown (Printf.sprintf "proc %d" i) bd b.Machine.per_proc.(i))
    a.Machine.per_proc;
  check_hist "read_mshr_hist" a.Machine.read_mshr_hist b.Machine.read_mshr_hist;
  check_hist "total_mshr_hist" a.Machine.total_mshr_hist b.Machine.total_mshr_hist;
  Alcotest.(check int) "hierarchy depth"
    (Array.length a.Machine.level_stats)
    (Array.length b.Machine.level_stats);
  Array.iteri
    (fun i (la : Breakdown.level_stat) ->
      let lb = b.Machine.level_stats.(i) in
      Alcotest.(check int)
        (Printf.sprintf "L%d hits" (i + 1))
        la.Breakdown.lv_hits lb.Breakdown.lv_hits;
      Alcotest.(check int)
        (Printf.sprintf "L%d misses" (i + 1))
        la.Breakdown.lv_misses lb.Breakdown.lv_misses)
    a.Machine.level_stats

(* traces are rebuilt per run: a Trace.t is read-only to the simulator,
   but rebuilding keeps the two runs fully independent *)
let run_mode ?(cfg = Config.base) mode traces barriers =
  let lowered =
    { Lower.traces = Array.of_list (List.map mk_trace traces); barriers }
  in
  Machine.run ~mode cfg ~home:(fun _ -> 0) lowered

let equivalence_scenarios =
  [
    ("single miss", [ [ (Trace.Load, 0x40000, -1, -1) ] ], 0);
    ( "independent misses",
      [ List.init 8 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) ],
      0 );
    ( "dependent misses",
      [ List.init 4 (fun i -> (Trace.Load, 0x40000 + (i * 64), i - 1, -1)) ],
      0 );
    ( "mshr pressure",
      [ List.init 20 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) ],
      0 );
    ( "store burst",
      [ List.init 24 (fun i -> (Trace.Store, 0x40000 + (i * 64), -1, -1)) ],
      0 );
    ( "store then work",
      [
        (Trace.Store, 0x40000, -1, -1)
        :: List.init 40 (fun _ -> (Trace.Int_op, 1, -1, -1));
      ],
      0 );
    ( "window limit",
      [
        ((Trace.Load, 0x40000, -1, -1)
         :: List.init 100 (fun _ -> (Trace.Int_op, 1, -1, -1)))
        @ [ (Trace.Load, 0x50000, 100, -1) ];
      ],
      0 );
    ( "prefetch chain",
      [
        ((Trace.Prefetch_op, 0x40000, -1, -1)
         :: List.init 100 (fun i -> (Trace.Int_op, 1, i, -1)))
        @ [ (Trace.Load, 0x40000, 100, -1) ];
      ],
      0 );
    ( "two procs + barrier",
      [
        [ (Trace.Int_op, 1, -1, -1); (Trace.Barrier_op, 1, -1, -1) ];
        [
          (Trace.Load, 0x40000, -1, -1);
          (Trace.Load, 0x50000, 0, -1);
          (Trace.Barrier_op, 1, -1, -1);
        ];
      ],
      1 );
    ( "uneven procs, two barriers",
      [
        List.init 3 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1))
        @ [ (Trace.Barrier_op, 1, -1, -1); (Trace.Load, 0x70000, -1, -1);
            (Trace.Barrier_op, 2, -1, -1) ];
        [ (Trace.Barrier_op, 1, -1, -1); (Trace.Barrier_op, 2, -1, -1) ];
        [ (Trace.Load, 0x80000, -1, -1); (Trace.Barrier_op, 1, -1, -1);
          (Trace.Barrier_op, 2, -1, -1) ];
      ],
      2 );
  ]

let test_event_equals_cycle_hand () =
  List.iter
    (fun (name, traces, barriers) ->
      let rc = run_mode Machine.Cycle traces barriers in
      let re = run_mode Machine.Event traces barriers in
      Alcotest.(check pass) name () ();
      check_results_equal rc re)
    equivalence_scenarios

(* same scenarios on a deeper stack: the hierarchy refactor must keep the
   two loops in lockstep for >2-level configurations too *)
let test_event_equals_cycle_three_level () =
  List.iter
    (fun (name, traces, barriers) ->
      let rc = run_mode ~cfg:Config.three_level Machine.Cycle traces barriers in
      let re = run_mode ~cfg:Config.three_level Machine.Event traces barriers in
      Alcotest.(check pass) name () ();
      Alcotest.(check int) (name ^ ": three levels reported") 3
        (Array.length rc.Machine.level_stats);
      check_results_equal rc re)
    equivalence_scenarios

(* random whole programs, lowered and simulated in both modes *)
let run_program_mode mode (c : Gen_program.cfg) =
  let p = Gen_program.build c in
  let data = Memclust_ir.Data.create p in
  Gen_program.init c data;
  let lowered = Lower.build ~nprocs:1 p data in
  Machine.run ~mode Config.base ~home:(fun _ -> 0) lowered

let prop_event_equals_cycle =
  QCheck.Test.make ~count:200 ~name:"event mode ≡ cycle mode (random programs)"
    Gen_program.arbitrary (fun c ->
      let rc = run_program_mode Machine.Cycle c in
      let re = run_program_mode Machine.Event c in
      check_results_equal rc re;
      true)

let prop_event_deterministic =
  QCheck.Test.make ~count:50 ~name:"event mode deterministic (same cfg twice)"
    Gen_program.arbitrary (fun c ->
      let r1 = run_program_mode Machine.Event c in
      let r2 = run_program_mode Machine.Event c in
      check_results_equal r1 r2;
      true)

let test_deadlock_guard_event () =
  let loads = List.init 4 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) in
  let lowered = { Lower.traces = [| mk_trace loads |]; barriers = 0 } in
  Alcotest.(check bool) "event mode also raises on tiny budget" true
    (try
       ignore
         (Machine.run ~max_cycles:3 ~mode:Machine.Event Config.base
            ~home:(fun _ -> 0) lowered);
       false
     with Memclust_util.Error.Error (Memclust_util.Error.Sim_deadlock _) ->
       true)

(* ------------------- multi-core event ≡ cycle mode ------------------- *)

(* Random per-core traces: every core passes the same barriers in the
   same order, and loads and stores pick from a pool of six shared lines,
   so cross-core writes bump coherence versions (dirty-remote misses)
   while other cores sleep. Dependences are offsets back into the core's
   own trace. *)
type mp_spec = {
  barriers : int;
  mp_traces : (Trace.kind * int * int * int) list list;
}

let gen_mp_spec =
  let open QCheck.Gen in
  let off = frequency [ (1, return 0); (1, int_range 1 8) ] in
  let addr =
    map2 (fun l w -> 0x40000 + (l * 64) + (w * 8)) (int_bound 5) (int_bound 7)
  in
  let instr =
    frequency
      [
        (6, map2 (fun a d -> (Trace.Load, a, d, 0)) addr off);
        (4, map2 (fun a d -> (Trace.Store, a, d, 0)) addr off);
        (3, map2 (fun d1 d2 -> (Trace.Int_op, 1, d1, d2)) off off);
        (2, map2 (fun l d -> (Trace.Fp_op, l, d, 0)) (int_range 1 6) off);
        (1, map (fun d -> (Trace.Branch, 1, d, 0)) off);
        (1, map (fun a -> (Trace.Prefetch_op, a, 0, 0)) addr);
      ]
  in
  let number instrs =
    List.mapi
      (fun i (k, aux, o1, o2) ->
        let dep o = if o = 0 || i - o < 0 then -1 else i - o in
        (k, aux, dep o1, dep o2))
      instrs
  in
  let core barriers =
    let* segs = list_repeat (barriers + 1) (list_size (int_bound 12) instr) in
    return
      (number
         (List.concat
            (List.mapi
               (fun b seg ->
                 if b = 0 then seg else (Trace.Barrier_op, b, 0, 0) :: seg)
               segs)))
  in
  let* nprocs = int_range 2 8 in
  let* barriers = int_range 0 3 in
  let* mp_traces = list_repeat nprocs (core barriers) in
  return { barriers; mp_traces }

let print_mp_spec s =
  let kind = function
    | Trace.Int_op -> "I" | Trace.Fp_op -> "F" | Trace.Load -> "L"
    | Trace.Store -> "S" | Trace.Branch -> "B" | Trace.Barrier_op -> "|"
    | Trace.Prefetch_op -> "P"
  in
  String.concat "\n"
    (List.mapi
       (fun p t ->
         Printf.sprintf "proc %d: %s" p
           (String.concat " "
              (List.map
                 (fun (k, aux, d1, d2) ->
                   Printf.sprintf "%s%x/%d/%d" (kind k) aux d1 d2)
                 t)))
       s.mp_traces)

let arbitrary_mp_spec = QCheck.make ~print:print_mp_spec gen_mp_spec

(* the three configurations: plain, one MSHR (every second outstanding
   miss is retried on full MSHRs), and a seeded fault plan *)
let mp_configs seed =
  [
    Config.base;
    Config.with_mshrs 1 Config.base;
    Config.with_faults (Faults.scaled ~seed 0.3) Config.base;
  ]

let run_mp ~cfg mode s =
  let nprocs = List.length s.mp_traces in
  let lowered =
    {
      Lower.traces = Array.of_list (List.map mk_trace s.mp_traces);
      barriers = s.barriers;
    }
  in
  Machine.run ~mode cfg ~home:(fun a -> (a lsr 6) mod nprocs) lowered

(* every processor is sampled once per cycle, including the cycles after
   it finished *)
let check_sampled_every_cycle (r : Machine.result) =
  let open Memclust_util in
  let expect = float_of_int (r.Machine.cycles * Array.length r.Machine.per_proc) in
  Alcotest.(check (float 0.0)) "read samples" expect
    (Stats.Histogram.total r.Machine.read_mshr_hist);
  Alcotest.(check (float 0.0)) "total samples" expect
    (Stats.Histogram.total r.Machine.total_mshr_hist)

let prop_mp_event_equals_cycle =
  QCheck.Test.make ~count:200 ~name:"event ≡ cycle, random 2-8 procs"
    (QCheck.pair arbitrary_mp_spec QCheck.small_nat) (fun (s, seed) ->
      List.iter
        (fun cfg ->
          let rc = run_mp ~cfg Machine.Cycle s in
          check_sampled_every_cycle rc;
          check_results_equal rc (run_mp ~cfg Machine.Event s))
        (mp_configs seed);
      true)

(* the generator reaches what the property is about: MSHR-full retries,
   barrier waits, dirty-remote misses (a slower cache-to-cache transfer
   changes the timing) and memory faults *)
let test_mp_generator_coverage () =
  let rand = Random.State.make [| 10 |] in
  let specs = List.init 30 (fun _ -> gen_mp_spec rand) in
  let total f cfg =
    List.fold_left (fun acc s -> acc +. f (run_mp ~cfg Machine.Event s)) 0.0 specs
  in
  let mshr_full r = float_of_int r.Machine.mshr_full_events in
  let sync r = r.Machine.breakdown.Breakdown.sync_stall in
  Alcotest.(check bool) "MSHR-full retries" true
    (total mshr_full (Config.with_mshrs 1 Config.base) > 0.0);
  Alcotest.(check bool) "barrier waits" true (total sync Config.base > 0.0);
  let cycles r = float_of_int r.Machine.cycles in
  Alcotest.(check bool) "dirty-remote misses" true
    (total cycles { Config.base with Config.c2c_lat = 1000 }
    > total cycles Config.base);
  Alcotest.(check bool) "faults change timing" true
    (total cycles (Config.with_faults (Faults.scaled ~seed:3 0.3) Config.base)
    <> total cycles Config.base)

(* Barrier wake-ups of sleeping cores. Core [waiter] reaches barrier 1 at
   once and sleeps with nothing pending; core [arriver] gets there only
   after a memory miss. The lockstep loop steps cores in processor order,
   so a waiter after the arriver sees the arrival in the same cycle and a
   waiter before it one cycle later. The waiter's integer chain has
   issued by then and retires behind the barrier, so a wake-up one cycle
   early or late moves the finish time. *)
let barrier_pair ~waiter =
  let arriver = [ (Trace.Load, 0x40000, -1, -1); (Trace.Barrier_op, 1, 0, -1) ] in
  let waiter_trace =
    (Trace.Barrier_op, 1, -1, -1)
    :: List.init 12 (fun i -> (Trace.Int_op, 1, i, -1))
  in
  if waiter = 1 then [ arriver; waiter_trace ] else [ waiter_trace; arriver ]

let check_barrier_wake ~waiter () =
  let traces = barrier_pair ~waiter in
  let rc = run_mode Machine.Cycle traces 1 in
  let re = run_mode Machine.Event traces 1 in
  check_sampled_every_cycle rc;
  check_results_equal rc re;
  (* the waiter slept through the whole miss *)
  Alcotest.(check bool) "waiter waited on the barrier" true
    (re.Machine.per_proc.(waiter).Breakdown.sync_stall
    >= float_of_int Config.base.Config.mem_lat)

let test_barrier_wake_same_cycle () = check_barrier_wake ~waiter:1 ()
let test_barrier_wake_next_cycle () = check_barrier_wake ~waiter:0 ()

(* one core waits at a second barrier the others never reach: every live
   core asleep with nothing pending is reported at once, with a state
   dump naming every processor *)
let test_barrier_mismatch_deadlock () =
  let traces =
    [
      [ (Trace.Barrier_op, 1, -1, -1) ];
      [ (Trace.Barrier_op, 1, -1, -1); (Trace.Barrier_op, 2, -1, -1) ];
      [ (Trace.Load, 0x40000, -1, -1); (Trace.Barrier_op, 1, 0, -1) ];
    ]
  in
  match run_mode Machine.Event traces 2 with
  | _ -> Alcotest.fail "mismatched barriers must deadlock"
  | exception
      Memclust_util.Error.Error
        (Memclust_util.Error.Sim_deadlock { reason; state_dump; _ }) ->
      let contains sub s =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "no completion pending" true
        (contains "no completion pending" reason);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "dump lists proc %d" p)
            true
            (contains (Printf.sprintf "proc %d:" p) state_dump))
        [ 0; 1; 2 ]

(* ------------------------- dependence release ------------------------ *)

(* One hand trace per way an instruction's producers resolve: a
   zero-latency result, a barrier that retires without issuing, the same
   producer twice, a dependent chain longer than the window, and a load
   retried on full MSHRs. The pinned cycle counts come from the earlier
   issue scan, which re-tested every waiting instruction's dependences
   each cycle; both modes must land on them. *)
let run_both ?cfg traces barriers =
  let rc = run_mode ?cfg Machine.Cycle traces barriers in
  check_results_equal rc (run_mode ?cfg Machine.Event traces barriers);
  rc.Machine.cycles

(* a load behind a store or prefetch it depends on issues in that
   producer's cycle (their results are ready at issue), as if it were
   independent; behind an integer op it issues one cycle later *)
let test_release_zero_latency () =
  let cycles producer dep =
    run_both [ [ (producer, 0x50000, -1, -1); (Trace.Load, 0x40000, dep, -1) ] ] 0
  in
  List.iter
    (fun (name, producer, expect) ->
      Alcotest.(check int) (name ^ ": pinned") expect (cycles producer 0);
      Alcotest.(check int) (name ^ ": same cycle") (cycles producer (-1))
        (cycles producer 0))
    [ ("store", Trace.Store, 112); ("prefetch", Trace.Prefetch_op, 112) ];
  Alcotest.(check int) "int op: one cycle later"
    (cycles Trace.Int_op (-1) + 1)
    (cycles Trace.Int_op 0)

(* A barrier that waits behind a miss retires, never issued, in the
   miss's completion cycle, and the integer chain hanging off it is
   released then: alone, and with a second core already waiting at the
   barrier (whose own barrier issues before it retires). A barrier at
   the head of a fresh trace retires before its first issue attempt. *)
let test_release_retired_barrier () =
  let waiter =
    [ (Trace.Load, 0x40000, -1, -1); (Trace.Barrier_op, 1, 0, -1) ]
    @ List.init 8 (fun i -> (Trace.Int_op, 1, i + 1, -1))
  in
  let first = [ (Trace.Barrier_op, 1, -1, -1); (Trace.Int_op, 1, 0, -1) ] in
  Alcotest.(check int) "barrier first" 3 (run_both [ first ] 1);
  Alcotest.(check int) "one core" 95 (run_both [ waiter ] 1);
  Alcotest.(check int) "two cores" 95 (run_both [ waiter; first ] 1)

(* an instruction naming the same producer twice waits for it once *)
let test_release_same_producer () =
  let trace d2 =
    [
      (Trace.Load, 0x40000, -1, -1);
      (Trace.Int_op, 1, 0, d2);
      (Trace.Load, 0x50000, 1, d2);
    ]
  in
  Alcotest.(check int) "pinned" 173 (run_both [ trace 0 ] 0);
  Alcotest.(check int) "as with one dependence" (run_both [ trace (-1) ] 0)
    (run_both [ trace 0 ] 0)

(* 100 loads, each on the previous one: the chain outgrows the 64-entry
   window, and its misses serialize whatever the MSHR count *)
let test_release_long_chain () =
  let chain =
    List.init 100 (fun i -> (Trace.Load, 0x40000 + (i * 64), i - 1, -1))
  in
  List.iter
    (fun lp ->
      Alcotest.(check int)
        (Printf.sprintf "lp %d" lp)
        8502
        (run_both ~cfg:(Config.with_mshrs lp Config.base) [ chain ] 0))
    [ 1; 16 ]

(* With one MSHR, loads B and C are both rejected while A's miss is in
   flight. B becomes ready a cycle after C (it waits on an integer op),
   but it is older, so it takes the MSHR first when A completes, and the
   integer chain on B runs while C's miss is outstanding; C first would
   delay the chain by a whole miss. *)
let test_release_retry_order () =
  let trace =
    [
      (Trace.Load, 0x40000, -1, -1);
      (Trace.Int_op, 1, -1, -1);
      (Trace.Load, 0x50000, 1, -1);
      (Trace.Load, 0x60000, -1, -1);
    ]
    @ List.init 40 (fun i -> (Trace.Int_op, 1, (if i = 0 then 2 else i + 3), -1))
  in
  Alcotest.(check int) "pinned" 267
    (run_both ~cfg:(Config.with_mshrs 1 Config.base) [ trace ] 0)

(* A younger FP op completes while the head's L2 miss is still in
   flight: the core's next event is the FP result, read off the window,
   and then the miss. Event mode sleeps through both gaps and must still
   match cycle mode field by field. *)
let test_next_event_younger_fp () =
  let instrs = [ (Trace.Load, 0x40000, -1, -1); (Trace.Fp_op, 40, -1, -1) ] in
  let sh = Core.make_shared Config.base ~nprocs:1 ~home:(fun _ -> 0) in
  let c = Core.create sh ~proc:0 (mk_trace instrs) in
  Core.step c ~now:0;
  (* cycle 0 fetched both; cycle 1 issues the miss and the FP op *)
  Core.step c ~now:1;
  Alcotest.(check int) "FP result first" 41 (Core.next_event c ~now:1);
  Alcotest.(check int) "reading it changes nothing" 41 (Core.next_event c ~now:1);
  for now = 2 to 41 do
    Core.step c ~now;
    Alcotest.(check bool) (Printf.sprintf "cycle %d idle" now) false
      (Core.progressed c)
  done;
  let miss = Core.next_event c ~now:41 in
  Alcotest.(check bool) "then the miss" true (miss > 41 && miss < max_int);
  Alcotest.(check int) "both modes" (miss + 1) (run_both [ instrs ] 0)

(* ----------------------------- sim mode ----------------------------- *)

let test_mode_of_string () =
  let ts s = Option.map Machine.mode_to_string (Machine.mode_of_string s) in
  let chk = Alcotest.(check (option string)) in
  chk "cycle" (Some "cycle") (ts "cycle");
  chk "event, case-insensitive" (Some "event") (ts "EVENT");
  chk "unknown mode" None (ts "fast");
  chk "sampled mode is gone" None (ts "sampled")

(* a config still carrying a sampled-mode setting must fail fast, naming
   the modes that exist, instead of silently running something else *)
let test_stale_mode_fails_fast () =
  let loads = List.init 4 (fun i -> (Trace.Load, 0x40000 + (i * 64), -1, -1)) in
  let lowered = { Lower.traces = [| mk_trace loads |]; barriers = 0 } in
  let cfg = Config.with_sim_mode "sampled:2048:512:128" Config.base in
  match Machine.run cfg ~home:(fun _ -> 0) lowered with
  | _ -> Alcotest.fail "a sampled-mode setting must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names cycle and event"
        "Config.sim_mode: expected \"cycle\" or \"event\", got \
         \"sampled:2048:512:128\""
        msg

(* --------------------------- golden counts --------------------------- *)

(* Cycle counts captured from the pre-hierarchy-refactor simulator for
   every small-registry workload on both presets, base and clustered.
   The level-list refactor claims bit-identical timing on these configs,
   so both exact modes must land on these numbers exactly. Regenerate
   (only after an intentional timing change) with:
     dune exec tools/golden.exe *)
let golden_cycles =
  [
    ("Latbench", "base-500MHz", "base", 7219);
    ("Latbench", "base-500MHz", "clustered", 2929);
    ("Latbench", "exemplar-like", "base", 7654);
    ("Latbench", "exemplar-like", "clustered", 3064);
    ("Em3d", "base-500MHz", "base", 1395);
    ("Em3d", "base-500MHz", "clustered", 1204);
    ("Em3d", "exemplar-like", "base", 2638);
    ("Em3d", "exemplar-like", "clustered", 2636);
    ("Erlebacher", "base-500MHz", "base", 3404);
    ("Erlebacher", "base-500MHz", "clustered", 3404);
    ("Erlebacher", "exemplar-like", "base", 4124);
    ("Erlebacher", "exemplar-like", "clustered", 4028);
    ("FFT", "base-500MHz", "base", 1388);
    ("FFT", "base-500MHz", "clustered", 1352);
    ("FFT", "exemplar-like", "base", 2489);
    ("FFT", "exemplar-like", "clustered", 2358);
    ("LU", "base-500MHz", "base", 10240);
    ("LU", "base-500MHz", "clustered", 7106);
    ("LU", "exemplar-like", "base", 7932);
    ("LU", "exemplar-like", "clustered", 6578);
    ("Mp3d", "base-500MHz", "base", 3280);
    ("Mp3d", "base-500MHz", "clustered", 3661);
    ("Mp3d", "exemplar-like", "base", 4046);
    ("Mp3d", "exemplar-like", "clustered", 4607);
    ("MST", "base-500MHz", "base", 5596);
    ("MST", "base-500MHz", "clustered", 3717);
    ("MST", "exemplar-like", "base", 11437);
    ("MST", "exemplar-like", "clustered", 8854);
    ("Ocean", "base-500MHz", "base", 2486);
    ("Ocean", "base-500MHz", "clustered", 1759);
    ("Ocean", "exemplar-like", "base", 4153);
    ("Ocean", "exemplar-like", "clustered", 3615);
  ]

let test_golden_cycles () =
  let open Memclust_workloads in
  let open Memclust_harness in
  let workloads = Registry.small () in
  List.iter
    (fun (wname, cname, vname, expect) ->
      let w =
        List.find (fun (w : Workload.t) -> w.Workload.name = wname) workloads
      in
      let cfg =
        if cname = "base-500MHz" then Config.base else Config.exemplar_like
      in
      let nprocs = max 1 w.Workload.mp_procs in
      let program =
        if vname = "base" then Memclust_ir.Program.renumber w.Workload.program
        else fst (Experiment.transform cfg w)
      in
      let data = Memclust_ir.Data.create program in
      w.Workload.init data;
      let lowered = Lower.build ~nprocs program data in
      let home = Memclust_ir.Data.home_of_addr data ~nprocs in
      let run mode =
        let r = Machine.run cfg ~mode ~home lowered in
        Alcotest.(check int)
          (Printf.sprintf "%s/%s/%s/%s" wname cname vname
             (Machine.mode_to_string mode))
          expect r.Machine.cycles;
        r
      in
      let rc = run Machine.Cycle in
      check_results_equal rc (run Machine.Event))
    golden_cycles

let test_simulation_deterministic () =
  let loads = List.init 16 (fun i -> (Trace.Load, 0x40000 + (i * 48), (if i mod 3 = 0 then -1 else i - 1), -1)) in
  let r1 = run_single loads in
  let r2 = run_single loads in
  Alcotest.(check int) "same cycles" r1.Machine.cycles r2.Machine.cycles;
  Alcotest.(check int) "same misses" r1.Machine.l2_misses r2.Machine.l2_misses

let () =
  Alcotest.run "sim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "version invalidation" `Quick test_cache_version_invalidation;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "direct-mapped conflict" `Quick test_cache_direct_mapped_conflict;
        ] );
      ( "memsys",
        [
          Alcotest.test_case "uncontended latencies" `Quick test_memsys_uncontended;
          Alcotest.test_case "bank contention" `Quick test_memsys_bank_contention;
          Alcotest.test_case "banks parallel" `Quick test_memsys_banks_parallel;
          Alcotest.test_case "utilization accounting" `Quick test_memsys_utilization;
          Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
          Alcotest.test_case "remote scales with distance" `Quick test_remote_scales_with_distance;
        ] );
      ("breakdown", [ Alcotest.test_case "arith" `Quick test_breakdown ]);
      ( "core",
        [
          Alcotest.test_case "single miss" `Quick test_single_miss_latency;
          Alcotest.test_case "independent misses overlap" `Quick test_independent_misses_overlap;
          Alcotest.test_case "dependent misses serialize" `Quick test_dependent_misses_serialize;
          Alcotest.test_case "same line coalesces" `Quick test_same_line_coalesce;
          Alcotest.test_case "store retires early" `Quick test_store_retires_early;
          Alcotest.test_case "MSHR limit" `Quick test_mshr_limit;
          Alcotest.test_case "window limits overlap" `Quick test_window_limits_overlap;
          Alcotest.test_case "IPC bounds" `Quick test_ipc_bounded_by_retire_width;
          Alcotest.test_case "barrier sync" `Quick test_barrier_sync;
          Alcotest.test_case "MSHR histograms" `Quick test_mshr_histograms;
          Alcotest.test_case "deadlock guard" `Quick test_deadlock_guard;
          Alcotest.test_case "config presets" `Quick test_config_presets;
        ] );
      ( "determinism",
        [ Alcotest.test_case "repeatable" `Quick test_simulation_deterministic ] );
      ( "event-mode",
        [
          Alcotest.test_case "hand traces, both modes" `Quick
            test_event_equals_cycle_hand;
          Alcotest.test_case "hand traces, three-level stack" `Quick
            test_event_equals_cycle_three_level;
          Alcotest.test_case "deadlock guard in event mode" `Quick
            test_deadlock_guard_event;
          QCheck_alcotest.to_alcotest prop_event_equals_cycle;
          QCheck_alcotest.to_alcotest prop_event_deterministic;
        ] );
      ( "multi-core",
        [
          Alcotest.test_case "generator coverage" `Quick
            test_mp_generator_coverage;
          Alcotest.test_case "barrier wakes later core same cycle" `Quick
            test_barrier_wake_same_cycle;
          Alcotest.test_case "barrier wakes earlier core next cycle" `Quick
            test_barrier_wake_next_cycle;
          Alcotest.test_case "mismatched barriers deadlock" `Quick
            test_barrier_mismatch_deadlock;
          QCheck_alcotest.to_alcotest prop_mp_event_equals_cycle;
        ] );
      ( "release",
        [
          Alcotest.test_case "zero-latency producer" `Quick
            test_release_zero_latency;
          Alcotest.test_case "barrier retired without issuing" `Quick
            test_release_retired_barrier;
          Alcotest.test_case "dep1 = dep2" `Quick test_release_same_producer;
          Alcotest.test_case "chain longer than the window" `Quick
            test_release_long_chain;
          Alcotest.test_case "MSHR-full retry keeps trace order" `Quick
            test_release_retry_order;
          Alcotest.test_case "next event: younger FP op before the miss"
            `Quick test_next_event_younger_fp;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "hides latency" `Quick test_prefetch_hides_latency;
          Alcotest.test_case "late prefetch" `Quick test_prefetch_late;
          Alcotest.test_case "never stalls" `Quick test_prefetch_never_stalls_retire;
        ] );
      ( "machine-mode",
        [
          Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
          Alcotest.test_case "stale sampled setting fails fast" `Quick
            test_stale_mode_fails_fast;
        ] );
      ( "golden",
        [
          Alcotest.test_case "pre-refactor cycle counts, both modes" `Quick
            test_golden_cycles;
        ] );
    ]

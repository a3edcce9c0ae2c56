(* Resilience: the watchdog stays silent on healthy runs, fault injection
   is deterministic and bit-transparent when disabled, the chaos-tested
   fail-safe pipeline always ships a valid equivalent program, and the
   domain pool contains crashes to the task that crashed. *)

open Memclust_ir
open Memclust_util
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads

let lowered (w : Workload.t) ~nprocs =
  let p = Program.renumber w.Workload.program in
  let data = Data.create p in
  w.Workload.init data;
  Lower.build ~nprocs p data

(* ------------------------------- watchdog ------------------------------- *)

(* Every small workload, both modes, with a watchdog budget far below the
   run length: a healthy simulation must never trip it, and the two modes
   must stay bit-identical with it armed. *)
let test_watchdog_silent_on_healthy_runs () =
  List.iter
    (fun (w : Workload.t) ->
      let l = lowered w ~nprocs:1 in
      let run mode =
        Machine.run ~mode ~watchdog_cycles:100_000 Config.base
          ~home:(fun _ -> 0)
          l
      in
      let rc = run Machine.Cycle in
      let re = run Machine.Event in
      Alcotest.(check int)
        (w.Workload.name ^ " cycle/event identical under watchdog")
        rc.Machine.cycles re.Machine.cycles)
    (Registry.small ())

let test_watchdog_reports_deadlock () =
  let w = List.hd (Registry.small ()) in
  let l = lowered w ~nprocs:1 in
  match
    Machine.run ~watchdog_cycles:2 ~mode:Machine.Cycle Config.base
      ~home:(fun _ -> 0)
      l
  with
  | _ -> Alcotest.fail "a 2-cycle watchdog budget must fire on a miss stall"
  | exception Error.Error (Error.Sim_deadlock d) ->
      Alcotest.(check string) "mode recorded" "cycle" d.mode;
      Alcotest.(check bool) "dump names a proc" true
        (String.length d.state_dump > 0
        && String.index_opt d.state_dump 'p' <> None)
  | exception e -> raise e

let contains s needle =
  let nl = String.length needle in
  let rec scan i =
    i + nl <= String.length s && (String.sub s i nl = needle || scan (i + 1))
  in
  scan 0

(* The wall-clock budget, read every 8192 loop iterations, stops a run
   that outlives it, whether set by [?time_budget] or by
   MEMCLUST_TIME_BUDGET_S (restored to "0", disabled, afterwards). *)
let test_time_budget_stops_long_run () =
  let l = lowered (Registry.latbench ()) ~nprocs:1 in
  let expect_budget what run =
    match run () with
    | (_ : Machine.result) -> Alcotest.fail (what ^ ": a 1 us budget must stop the run")
    | exception Error.Error (Error.Sim_deadlock d) ->
        Alcotest.(check bool) (what ^ ": reason names the wall-clock budget") true
          (contains d.reason "wall-clock budget")
  in
  let run ?time_budget () =
    Machine.run ?time_budget ~mode:Machine.Cycle Config.base ~home:(fun _ -> 0) l
  in
  expect_budget "?time_budget" (run ~time_budget:1e-6);
  Unix.putenv "MEMCLUST_TIME_BUDGET_S" "1e-6";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MEMCLUST_TIME_BUDGET_S" "0")
    (fun () -> expect_budget "MEMCLUST_TIME_BUDGET_S" (run ?time_budget:None))

(* The watchdog, budget and pool variables reject a malformed value,
   naming the variable, instead of running with the default; an empty
   value reads as unset. The pool's count is only parsed: no pool is
   created from it. *)
let test_env_values_checked () =
  let with_env name v f =
    let old = Option.value ~default:"" (Sys.getenv_opt name) in
    Unix.putenv name v;
    Fun.protect ~finally:(fun () -> Unix.putenv name old) f
  in
  let rejects name read v =
    with_env name v (fun () ->
        match read () with
        | () -> Alcotest.failf "%s=%s: accepted" name v
        | exception Invalid_argument m ->
            Alcotest.(check bool) (name ^ "=" ^ v ^ ": names the variable") true
              (contains m name))
  in
  let watchdog () = Machine.default_watchdog_cycles () in
  let budget () = Machine.default_time_budget () in
  let domains () = Domain_pool.domains_of_env () in
  List.iter
    (rejects "MEMCLUST_WATCHDOG_CYCLES" (fun () -> ignore (watchdog ())))
    [ "5c"; "0"; "-3"; "soon" ];
  List.iter
    (rejects "MEMCLUST_TIME_BUDGET_S" (fun () -> ignore (budget ())))
    [ "soon"; "-1"; "1s" ];
  List.iter
    (rejects "MEMCLUST_DOMAINS" (fun () -> ignore (domains ())))
    [ "abc"; "-1"; "2x" ];
  let reads name v what check = with_env name v (fun () -> check (name ^ "=" ^ v ^ " " ^ what)) in
  reads "MEMCLUST_WATCHDOG_CYCLES" "5" "is 5" (fun m -> Alcotest.(check int) m 5 (watchdog ()));
  reads "MEMCLUST_WATCHDOG_CYCLES" "" "is the default" (fun m ->
      Alcotest.(check int) m 1_000_000 (watchdog ()));
  reads "MEMCLUST_TIME_BUDGET_S" "2.5" "is 2.5 s" (fun m ->
      Alcotest.(check (float 0.0)) m 2.5 (budget ()));
  List.iter
    (fun v ->
      reads "MEMCLUST_TIME_BUDGET_S" v "disables the budget" (fun m ->
          Alcotest.(check (float 0.0)) m 0.0 (budget ())))
    [ "0"; "" ];
  reads "MEMCLUST_DOMAINS" "3" "is 3" (fun m ->
      Alcotest.(check (option int)) m (Some 3) (domains ()));
  reads "MEMCLUST_DOMAINS" "0" "is sequential" (fun m ->
      Alcotest.(check (option int)) m (Some 0) (domains ()));
  reads "MEMCLUST_DOMAINS" "" "is unset" (fun m ->
      Alcotest.(check (option int)) m None (domains ()))

(* --------------------------- fault injection ---------------------------- *)

let run_with_faults ?plan () =
  let w = Registry.latbench () in
  let small = { w with Workload.program = w.Workload.program } in
  let cfg =
    match plan with
    | None -> Config.base
    | Some p -> Config.with_faults p Config.base
  in
  let l = lowered small ~nprocs:1 in
  Machine.run ~mode:Machine.Event cfg ~home:(fun _ -> 0) l

let test_fault_plan_deterministic () =
  let plan = Faults.scaled ~seed:42 0.2 in
  let r1 = run_with_faults ~plan () in
  let r2 = run_with_faults ~plan () in
  Alcotest.(check int) "same seed, same cycles" r1.Machine.cycles
    r2.Machine.cycles;
  Alcotest.(check (float 0.0001)) "same seed, same latency"
    r1.Machine.avg_read_miss_latency r2.Machine.avg_read_miss_latency;
  let r3 = run_with_faults ~plan:(Faults.scaled ~seed:43 0.2) () in
  Alcotest.(check bool) "faults actually perturb the run" true
    (r3.Machine.cycles <> r1.Machine.cycles)

let test_faults_slow_the_machine () =
  let clean = run_with_faults () in
  let faulty = run_with_faults ~plan:(Faults.scaled ~seed:7 0.3) () in
  Alcotest.(check bool) "injected faults cost cycles" true
    (faulty.Machine.cycles > clean.Machine.cycles)

let test_zero_probability_plan_is_transparent () =
  let clean = run_with_faults () in
  let zero = run_with_faults ~plan:(Faults.plan ~seed:9 ()) () in
  Alcotest.(check int) "bit-identical cycles" clean.Machine.cycles
    zero.Machine.cycles;
  Alcotest.(check int) "bit-identical misses" clean.Machine.read_misses
    zero.Machine.read_misses

let test_faults_of_string () =
  (match Faults.of_string "42" with
  | Ok p ->
      Alcotest.(check int) "seed" 42 p.Faults.seed;
      Alcotest.(check (float 1e-9)) "default rate" 0.05 p.Faults.delay_prob
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "7:0.5" with
  | Ok p ->
      Alcotest.(check (float 1e-9)) "rate" 0.5 p.Faults.delay_prob;
      Alcotest.(check (float 1e-9)) "nack rate" 0.25 p.Faults.nack_prob
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Ok _ -> Alcotest.failf "%S must not parse" s
      | Error _ -> ())
    [ ""; "x"; "1:2.0"; "1:-0.1"; "1:0.1:3" ]

(* --------------------------- chaos pipeline ----------------------------- *)

let small_lu () = Lu.make ~n:16 ~block:8 ()

let final_store (w : Workload.t) p =
  let d = Data.create p in
  w.Workload.init d;
  Exec.run p d;
  d

(* A source program whose store ends up holding a NaN: small LU with one
   more statement, rdiag[0] = inf - inf, which the factorization spreads
   through A. The semantic guard compares the final stores with
   [Data.equal], under which two NaNs are equal, so every pass that keeps
   the semantics is kept. *)
let test_nan_store_not_degraded () =
  let w = small_lu () in
  let nan_stmt =
    let open Builder in
    store (aref "rdiag" (cst 0)) (flt Float.infinity - flt Float.infinity)
  in
  let program =
    { w.Workload.program with Ast.body = nan_stmt :: w.Workload.program.Ast.body }
  in
  let reference = final_store w (Program.renumber program) in
  (match Data.get reference "rdiag" 0 with
  | Ast.Vfloat x when Float.is_nan x -> ()
  | _ -> Alcotest.fail "rdiag[0] must hold a NaN");
  let _, report = Driver.run ~init:w.Workload.init program in
  Alcotest.(check (list string)) "no pass degraded" []
    (List.map fst (Pass.Pipeline.degraded_passes report.Driver.trace));
  Alcotest.(check bool) "unroll-and-jam still applied" true
    (List.exists
       (fun n ->
         List.exists
           (function Driver.Unroll_jam _ -> true | _ -> false)
           n.Driver.actions)
       report.Driver.nests)

let sabotageable = [ "analyze"; "unroll-jam"; "window-unroll"; "scalar-replace"; "schedule" ]

(* Under seeded sabotage the fail-safe pipeline must still terminate, ship
   valid IR, and preserve the source program's semantics — worst case by
   shipping it untransformed. The degraded pass lists are pinned: checking
   the final program once and replaying per pass on a divergence must take
   the same rollback decisions, chaos draws included, as checking every
   pass. At rate 1.0 every sabotageable pass crashes or corrupts; at rate
   0.5 crashes (caught per pass) and corruptions (caught by the replay)
   mix. *)
let pinned_chaos =
  let all = String.concat "," sabotageable in
  List.map (fun seed -> (seed, 1.0, all)) [ 1; 2; 3; 4; 5 ]
  @ [
      (1, 0.5, "");
      (2, 0.5, "scalar-replace,schedule");
      (3, 0.5, "unroll-jam,window-unroll,scalar-replace");
      (4, 0.5, "analyze,scalar-replace");
      (5, 0.5, "analyze,unroll-jam,scalar-replace");
      (6, 0.5, "unroll-jam,schedule");
      (7, 0.5, "unroll-jam,window-unroll,scalar-replace");
      (8, 0.5, "analyze,unroll-jam,window-unroll,scalar-replace,schedule");
    ]

let test_chaos_pipeline_stays_correct () =
  let w = small_lu () in
  let reference = final_store w (Program.renumber w.Workload.program) in
  List.iter
    (fun (chaos_seed, chaos_rate, expected) ->
      let options =
        {
          Driver.default_options with
          chaos = Some { Pass.chaos_seed; chaos_rate; fail_pass = None };
        }
      in
      let p, report =
        Driver.run ~options ~init:w.Workload.init w.Workload.program
      in
      let what = Printf.sprintf "seed %d rate %.1f" chaos_seed chaos_rate in
      (match Program.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invalid IR shipped: %s" what m);
      Alcotest.(check bool) (what ^ ": semantics preserved") true
        (Data.equal reference (final_store w p));
      Alcotest.(check string) (what ^ ": degraded passes") expected
        (String.concat ","
           (List.map fst (Pass.Pipeline.degraded_passes report.Driver.trace))))
    pinned_chaos

(* Forcing any one sabotageable pass to corrupt its result degrades
   exactly that pass: the final check finds the divergence, the per-pass
   replay rolls the pass back, and every later pass still runs over the
   last-good IR. *)
let test_forced_pass_failure_degrades () =
  let w = small_lu () in
  let reference = final_store w (Program.renumber w.Workload.program) in
  List.iter
    (fun forced ->
      let options =
        {
          Driver.default_options with
          chaos = Some { Pass.chaos_seed = 0; chaos_rate = 0.0; fail_pass = Some forced };
        }
      in
      let p, report =
        Driver.run ~options ~init:w.Workload.init w.Workload.program
      in
      Alcotest.(check (list string))
        (forced ^ ": exactly it degrades")
        [ forced ]
        (List.map fst (Pass.Pipeline.degraded_passes report.Driver.trace));
      let rec after = function
        | [] -> []
        | name :: rest -> if String.equal name forced then rest else after rest
      in
      Alcotest.(check (list string))
        (forced ^ ": every later pass still runs")
        (after Driver.pass_names)
        (after
           (List.map
              (fun (e : Pass.Pipeline.entry) -> e.Pass.Pipeline.pass_name)
              report.Driver.trace.Pass.Pipeline.entries));
      Alcotest.(check bool)
        (forced ^ ": semantics preserved")
        true
        (Data.equal reference (final_store w p)))
    sabotageable

(* A corrupted candidate whose execution raises (here: it reads a scalar
   whose assignment the corruption dropped) is a divergence like any
   other: the pass rolls back and the run returns the source's
   semantics. *)
let test_raising_candidate_rolls_back () =
  List.iter
    (fun name ->
      let w = List.find (fun w -> String.equal w.Workload.name name) (Registry.small ()) in
      let reference = final_store w (Program.renumber w.Workload.program) in
      let options =
        {
          Driver.default_options with
          chaos = Some { Pass.chaos_seed = 0; chaos_rate = 0.5; fail_pass = None };
        }
      in
      let p, report =
        Driver.run ~options ~init:w.Workload.init w.Workload.program
      in
      Alcotest.(check bool) (name ^ ": a pass degraded") true
        (Pass.Pipeline.degraded_passes report.Driver.trace <> []);
      Alcotest.(check bool) (name ^ ": semantics preserved") true
        (Data.equal reference (final_store w p)))
    [ "MST"; "Mp3d" ]

let test_chaos_of_env_parses () =
  Unix.putenv "MEMCLUST_CHAOS_PASSES" "11:0.5";
  Unix.putenv "MEMCLUST_FAIL_PASS" "schedule";
  let c = Driver.chaos_of_env () in
  Unix.putenv "MEMCLUST_CHAOS_PASSES" "";
  Unix.putenv "MEMCLUST_FAIL_PASS" "";
  (match c with
  | Some { Pass.chaos_seed = 11; chaos_rate = 0.5; fail_pass = Some "schedule" }
    ->
      ()
  | _ -> Alcotest.fail "env chaos spec not parsed");
  Alcotest.(check bool) "unset -> None" true (Driver.chaos_of_env () = None)

(* A fail pass must name a pass that can fail: an unknown name, or
   uniquify (never sabotaged), would turn the resilience demo into a
   silent normal run. The options and MEMCLUST_FAIL_PASS are both
   checked, and the error names every valid pass. *)
let test_fail_pass_name_checked () =
  let w = small_lu () in
  let valid = List.filter (fun n -> n <> "uniquify") Driver.pass_names in
  let mentions m n =
    let k = String.length n in
    let rec scan i = i + k <= String.length m && (String.sub m i k = n || scan (i + 1)) in
    scan 0
  in
  let rejects what run =
    match run () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument m ->
        List.iter
          (fun n -> Alcotest.(check bool) (what ^ ": names " ^ n) true (mentions m n))
          valid
  in
  List.iter
    (fun bad ->
      let chaos = Some { Pass.chaos_seed = 0; chaos_rate = 0.0; fail_pass = Some bad } in
      rejects ("fail_pass " ^ bad) (fun () ->
          Driver.run ~options:{ Driver.default_options with chaos } w.Workload.program);
      Unix.putenv "MEMCLUST_FAIL_PASS" bad;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "MEMCLUST_FAIL_PASS" "")
        (fun () ->
          rejects ("MEMCLUST_FAIL_PASS=" ^ bad) (fun () -> Driver.run w.Workload.program)))
    [ "bogus"; "uniquify" ]

(* --------------------------- crash containment -------------------------- *)

let test_map_result_contains_crashes () =
  let pool = Domain_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let results =
        Domain_pool.map_result ~task_name:string_of_int pool
          (fun i -> if i = 3 then failwith "boom" else i * 10)
          [ 1; 2; 3; 4 ]
      in
      match results with
      | [ Ok 10; Ok 20; Error (Error.Worker_crashed { task; attempts; _ }); Ok 40 ]
        ->
          Alcotest.(check string) "task named" "3" task;
          Alcotest.(check int) "retried once" 2 attempts
      | _ -> Alcotest.fail "expected exactly task 3 to fail")

let test_map_result_retries_transient_failures () =
  let pool = Domain_pool.create ~domains:0 () in
  let tries = Atomic.make 0 in
  let results =
    Domain_pool.map_result pool
      (fun i ->
        if i = 1 && Atomic.fetch_and_add tries 1 = 0 then failwith "transient";
        i)
      [ 0; 1 ]
  in
  Alcotest.(check bool) "transient failure retried into Ok" true
    (results = [ Ok 0; Ok 1 ]);
  Alcotest.(check int) "took two attempts" 2 (Atomic.get tries)

let test_map_result_preserves_structured_errors () =
  let pool = Domain_pool.create ~domains:0 () in
  let results =
    Domain_pool.map_result pool
      (fun () ->
        Error.raise_err
          (Error.Sim_deadlock
             { cycle = 9; mode = "cycle"; reason = "r"; state_dump = "d" }))
      [ () ]
  in
  match results with
  | [ Error (Error.Sim_deadlock { cycle = 9; _ }) ] -> ()
  | _ -> Alcotest.fail "structured error must survive the pool unwrapped"

(* ------------------------------ checkpoint ------------------------------ *)

let test_checkpoint_roundtrip () =
  let dir = "checkpoint-test-tmp" in
  let ck = Memclust_harness.Checkpoint.create dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "empty" false
        (Memclust_harness.Checkpoint.mem ck "fig3a");
      Memclust_harness.Checkpoint.save ck "fig3a" "table body\n";
      Alcotest.(check bool) "saved" true
        (Memclust_harness.Checkpoint.mem ck "fig3a");
      Alcotest.(check (option string)) "loads back" (Some "table body\n")
        (Memclust_harness.Checkpoint.load ck "fig3a");
      Memclust_harness.Checkpoint.save ck "fig3a" "v2\n";
      Alcotest.(check (option string)) "overwrite is atomic+last-wins"
        (Some "v2\n")
        (Memclust_harness.Checkpoint.load ck "fig3a");
      Memclust_harness.Checkpoint.save ck "table1" "x\n";
      Alcotest.(check (list string)) "saved ids sorted" [ "fig3a"; "table1" ]
        (Memclust_harness.Checkpoint.saved ck);
      match Memclust_harness.Checkpoint.load ck "../escape" with
      | exception Error.Error (Error.Config_invalid _) -> ()
      | _ -> Alcotest.fail "path-escaping ids must be rejected")

let () =
  Alcotest.run "resilience"
    [
      ( "watchdog",
        [
          Alcotest.test_case "silent on healthy runs (all modes)" `Slow
            test_watchdog_silent_on_healthy_runs;
          Alcotest.test_case "wall-clock budget stops a long run" `Quick
            test_time_budget_stops_long_run;
          Alcotest.test_case "reports deadlock with state dump" `Quick
            test_watchdog_reports_deadlock;
          Alcotest.test_case "malformed environment values rejected" `Quick
            test_env_values_checked;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "faults cost cycles" `Quick
            test_faults_slow_the_machine;
          Alcotest.test_case "zero-probability plan transparent" `Quick
            test_zero_probability_plan_is_transparent;
          Alcotest.test_case "of_string" `Quick test_faults_of_string;
        ] );
      ( "chaos pipeline",
        [
          Alcotest.test_case "always valid and equivalent" `Slow
            test_chaos_pipeline_stays_correct;
          Alcotest.test_case "NaN in the store degrades nothing" `Quick
            test_nan_store_not_degraded;
          Alcotest.test_case "forced failure degrades" `Quick
            test_forced_pass_failure_degrades;
          Alcotest.test_case "raising candidate rolls back" `Quick
            test_raising_candidate_rolls_back;
          Alcotest.test_case "env spec parses" `Quick test_chaos_of_env_parses;
          Alcotest.test_case "fail pass name checked" `Quick
            test_fail_pass_name_checked;
        ] );
      ( "crash containment",
        [
          Alcotest.test_case "map_result contains crashes" `Quick
            test_map_result_contains_crashes;
          Alcotest.test_case "map_result retries transients" `Quick
            test_map_result_retries_transient_failures;
          Alcotest.test_case "structured errors survive" `Quick
            test_map_result_preserves_structured_errors;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip ] );
    ]

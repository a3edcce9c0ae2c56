(* memclust-repro: command-line driver for the paper reproduction.

   Subcommands:
     list                      — list experiments and workloads
     experiment <id> [...]     — reproduce a table/figure by id
     run <workload>            — base-vs-clustered on one workload
     sweep [<workload>..]      — lp / line-size sensitivity sweep (JSON)
     show <workload>           — print base and transformed IR
     analyze <workload>        — locality / dependence / f analyses
     trace [<workload>..]      — per-pass pipeline instrumentation *)

open Cmdliner
open Memclust_ir
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness

(* --sim-mode: exported through MEMCLUST_SIM_MODE so the choice reaches
   every Config the harness builds internally (Figures constructs its
   own), via Machine.resolve_mode's env fallback. *)

let sim_mode_arg =
  let doc =
    "Simulation mode: $(b,cycle) or $(b,event). Defaults to the \
     $(b,MEMCLUST_SIM_MODE) environment variable, else event."
  in
  Arg.(value & opt (some string) None & info [ "sim-mode" ] ~docv:"MODE" ~doc)

let apply_sim_mode = function
  | None -> ()
  | Some s -> (
      match Machine.mode_of_string s with
      | Some _ -> Unix.putenv "MEMCLUST_SIM_MODE" s
      | None ->
          Printf.eprintf "bad simulation mode %s (cycle or event)\n" s;
          exit 1)

(* Resilience flags, exported the same way: environment variables are the
   only channel that reaches Machines and Pipelines constructed deep
   inside the harness (Figures builds its own Configs; Experiment builds
   its own pass options). Each value is validated here so a typo fails
   fast instead of deep inside a worker domain. *)

let watchdog_arg =
  let doc =
    "Simulator forward-progress watchdog: abort (with a state dump) any \
     simulation making no progress for $(docv) cycles. Defaults to the \
     $(b,MEMCLUST_WATCHDOG_CYCLES) environment variable, else 1000000."
  in
  Arg.(value & opt (some int) None & info [ "watchdog-cycles" ] ~docv:"N" ~doc)

let time_budget_arg =
  let doc =
    "Wall-clock budget per simulation in seconds (0 disables, the \
     default); exceeding it raises the same structured deadlock error as \
     the cycle watchdog."
  in
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECONDS" ~doc)

let faults_arg =
  let doc =
    "Deterministic memory-system fault injection: $(b,SEED[:RATE]) \
     (delayed fills at RATE, NACKs and bank stalls at RATE/2; RATE \
     defaults to 0.05). Same syntax as $(b,MEMCLUST_FAULTS)."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SEED[:RATE]" ~doc)

let chaos_arg =
  let doc =
    "Chaos-test the clustering pipeline: sabotage passes (crash or \
     corrupt, drawn from SEED) with probability RATE (default 0.25). The \
     fail-safe pipeline must degrade, never crash or mis-transform. Same \
     syntax as $(b,MEMCLUST_CHAOS_PASSES)."
  in
  Arg.(
    value & opt (some string) None & info [ "chaos-passes" ] ~docv:"SEED[:RATE]" ~doc)

(* Every option that names a clustering pass parses through an enum of
   the names: an unknown name is a usage error (exit 124) listing them.
   --fail-pass excludes uniquify, which is never sabotaged. *)
let pass_enum names = Arg.enum (List.map (fun n -> (n, n)) names)
let pass_conv = pass_enum Memclust_cluster.Driver.pass_names

let fail_pass_arg =
  let doc =
    "Unconditionally corrupt the named clustering pass (resilience demo: \
     the run must complete with that pass rolled back and recorded as \
     degraded). Same as $(b,MEMCLUST_FAIL_PASS)."
  in
  let names = pass_enum Memclust_cluster.Driver.fail_pass_names in
  Arg.(value & opt (some names) None & info [ "fail-pass" ] ~docv:"PASS" ~doc)

let apply_resilience_flags watchdog budget faults chaos fail_pass =
  let bad fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n" s; exit 1) fmt in
  Option.iter
    (fun n ->
      if n <= 0 then bad "--watchdog-cycles must be positive (got %d)" n;
      Unix.putenv "MEMCLUST_WATCHDOG_CYCLES" (string_of_int n))
    watchdog;
  Option.iter
    (fun s ->
      if s < 0.0 then bad "--time-budget must be >= 0 (got %g)" s;
      Unix.putenv "MEMCLUST_TIME_BUDGET_S" (string_of_float s))
    budget;
  Option.iter
    (fun s ->
      (match Faults.of_string s with
      | Ok _ -> ()
      | Error e -> bad "bad --faults %s: %s" s e);
      Unix.putenv "MEMCLUST_FAULTS" s)
    faults;
  Option.iter
    (fun s ->
      Unix.putenv "MEMCLUST_CHAOS_PASSES" s;
      try ignore (Memclust_cluster.Driver.chaos_of_env ())
      with Invalid_argument m -> bad "bad --chaos-passes %s: %s" s m)
    chaos;
  Option.iter (Unix.putenv "MEMCLUST_FAIL_PASS") fail_pass

let resilience_term =
  Term.(
    const apply_resilience_flags $ watchdog_arg $ time_budget_arg $ faults_arg
    $ chaos_arg $ fail_pass_arg)

let list_cmd =
  let doc = "List experiment ids and workloads." in
  let run () =
    print_endline "experiments:";
    List.iter (fun id -> Printf.printf "  %s\n" id) Figures.all_ids;
    print_endline "workloads:";
    List.iter
      (fun w ->
        Printf.printf "  %-11s %s\n" w.Workload.name w.Workload.description)
      (Registry.latbench () :: Registry.applications ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let experiment_cmd =
  let doc = "Reproduce one or more of the paper's tables/figures." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let checkpoint_arg =
    let doc =
      "Checkpoint completed artifacts to directory $(docv) (created if \
       missing) and skip artifacts already checkpointed there, so an \
       interrupted batch resumes instead of recomputing."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)
  in
  let run () mode ckpt ids =
    apply_sim_mode mode;
    List.iter
      (fun id ->
        if not (List.mem id Figures.all_ids) then begin
          Printf.eprintf "unknown experiment %s (see `repro list`)\n" id;
          exit 1
        end)
      ids;
    let ck = Option.map Checkpoint.create ckpt in
    (* one wedged artifact degrades; the others still run and checkpoint *)
    let degraded =
      List.filter_map
        (fun id ->
          match Option.bind ck (fun c -> Checkpoint.load c id) with
          | Some text ->
              Printf.printf "==== %s (from checkpoint) ====\n%s\n\n%!" id text;
              None
          | None -> (
              match Figures.run_safe id with
              | Ok text ->
                  Printf.printf "==== %s ====\n%s\n\n%!" id text;
                  Option.iter (fun c -> Checkpoint.save c id text) ck;
                  Some (id, None)
              | Error e ->
                  Printf.printf "==== %s DEGRADED ====\n%s\n\n%!" id
                    (Memclust_util.Error.to_string e);
                  Some (id, Some e)))
        ids
      |> List.filter_map (fun (id, e) -> Option.map (fun e -> (id, e)) e)
    in
    if degraded <> [] then begin
      Printf.printf "degraded artifacts (%d of %d):\n" (List.length degraded)
        (List.length ids);
      List.iter
        (fun (id, e) ->
          Printf.printf "  %s: %s\n" id (Memclust_util.Error.kind e))
        degraded
    end
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const run $ resilience_term $ sim_mode_arg
      $ checkpoint_arg $ ids)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let procs_arg =
  Arg.(value & opt (some int) None & info [ "p"; "procs" ] ~docv:"N")

let lookup name =
  match Registry.by_name name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (see `repro list`)\n" name;
      exit 1

let run_cmd =
  let doc = "Simulate one workload, base vs clustered, and report." in
  let run () name procs mode =
    apply_sim_mode mode;
    let w = lookup name in
    let nprocs = Option.value ~default:w.Workload.mp_procs procs in
    (try Lower.check_nprocs nprocs
     with Invalid_argument m -> prerr_endline m; exit 1);
    let spec version =
      { Experiment.workload = w; config = Config.base; nprocs; version }
    in
    let get = Experiment.execute_all [ spec Experiment.Base; spec Experiment.Clustered ] in
    let go version =
      match get (spec version) with
      | o -> o
      | exception Memclust_util.Error.Error e ->
          (* a wedged or crashed simulation must not take the CLI down
             with a backtrace: report what is known and stop cleanly *)
          Format.printf
            "== %s on %d processor(s): DEGRADED ==@.%a@.@.\
             run aborted; no results for this point.@."
            w.Workload.name nprocs Memclust_util.Error.pp e;
          exit 0
    in
    let b = go Experiment.Base in
    let c = go Experiment.Clustered in
    Format.printf "== %s on %d processor(s) ==@." w.Workload.name nprocs;
    let mix label (o : Experiment.outcome) =
      let lowered, _ = Experiment.lowered_for w ~nprocs o.Experiment.program in
      Format.printf "%s mix: %a@." label Tracestats.pp (Tracestats.of_lowered lowered)
    in
    mix "base     " b;
    mix "clustered" c;
    (match c.Experiment.cluster_report with
    | Some r -> (
        Format.printf "%a@.@." Memclust_cluster.Driver.pp_report r;
        match Memclust_cluster.Pass.Pipeline.degraded_passes r.Memclust_cluster.Driver.trace with
        | [] -> ()
        | ds ->
            Format.printf
              "== DEGRADED: %d pass(es) rolled back (fail-safe pipeline) ==@."
              (List.length ds);
            List.iter
              (fun (pass, reason) -> Format.printf "  %s: %s@." pass reason)
              ds;
            Format.printf "@.")
    | None -> ());
    Format.printf "base:@.  %a@.clustered:@.  %a@." Machine.pp_result
      b.Experiment.result Machine.pp_result c.Experiment.result;
    Format.printf "execution time reduction: %.1f%%@."
      (100.0
      *. (1.0
         -. float_of_int (Experiment.exec_cycles c)
            /. float_of_int (Experiment.exec_cycles b)))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ resilience_term $ workload_arg $ procs_arg $ sim_mode_arg)

(* lp / line-size sensitivity sweep: X3's grid ([Figures.sweep]) over the
   given workloads at their [mp_procs], as a table and a JSON file *)
let sweep_cmd =
  let doc =
    "Sweep MSHR count (the outstanding-miss bound lp) and line size, \
     re-clustering for each point, and write the base/clustered cycle \
     counts to a JSON file."
  in
  let workloads_arg =
    let doc = "Workloads to sweep (default: Latbench)." in
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let mshrs_arg =
    let doc = "Comma-separated MSHR counts to sweep." in
    Arg.(
      value
      & opt (list ~sep:',' int) [ 1; 2; 4; 8; 16 ]
      & info [ "mshrs" ] ~docv:"N,.." ~doc)
  in
  let line_arg =
    let doc = "Comma-separated line sizes (bytes) to sweep." in
    Arg.(
      value
      & opt (list ~sep:',' int)
          [ Config.line Config.base ]
      & info [ "line" ] ~docv:"BYTES,.." ~doc)
  in
  let out_arg =
    let doc = "Output JSON file." in
    Arg.(
      value & opt string "BENCH_sweep.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run () names mshrs lines out mode =
    apply_sim_mode mode;
    let ws =
      match names with [] -> [ Registry.latbench () ] | ns -> List.map lookup ns
    in
    List.iter
      (fun m ->
        List.iter
          (fun l ->
            match Config.validate (Config.base |> Config.with_mshrs m |> Config.with_line l) with
            | Ok () -> ()
            | Error e ->
                Printf.eprintf "invalid sweep point (mshrs=%d, line=%d): %s\n" m l
                  (Memclust_util.Error.to_string e);
                exit 1)
          lines)
      mshrs;
    let groups =
      try
        Figures.sweep ~mshrs ~lines
          (List.map (fun (w : Workload.t) -> (w, max 1 w.Workload.mp_procs)) ws)
      with Memclust_util.Error.Error e ->
        (* a wedged point fails the sweep cleanly, with no partial JSON *)
        Format.eprintf "sweep aborted: %a@." Memclust_util.Error.pp e;
        exit 1
    in
    let rows =
      List.concat_map
        (fun ((w : Workload.t), rows) ->
          Printf.printf "== %s ==\n%-6s %-6s %10s %10s %8s %10s %10s\n%!"
            w.Workload.name "mshrs" "line" "base" "clustered" "speedup"
            "b.full" "c.full";
          List.map
            (fun { Figures.mshrs = m; line = l; base = b; clustered = c } ->
              let bc = Experiment.exec_cycles b
              and cc = Experiment.exec_cycles c in
              let speedup = float_of_int bc /. float_of_int cc in
              Printf.printf "%-6d %-6d %10d %10d %8.3f %10d %10d\n%!" m l bc cc
                speedup b.Experiment.result.Machine.mshr_full_events
                c.Experiment.result.Machine.mshr_full_events;
              Printf.sprintf
                "  {\"workload\": %S, \"mshrs\": %d, \"line\": %d, \
                 \"base_cycles\": %d, \"clustered_cycles\": %d, \"speedup\": \
                 %.4f, \"base_mshr_full\": %d, \"clustered_mshr_full\": %d, \
                 \"base_read_miss_latency\": %.2f, \
                 \"clustered_read_miss_latency\": %.2f}"
                w.Workload.name m l bc cc speedup
                b.Experiment.result.Machine.mshr_full_events
                c.Experiment.result.Machine.mshr_full_events
                b.Experiment.result.Machine.avg_read_miss_latency
                c.Experiment.result.Machine.avg_read_miss_latency)
            rows)
        groups
    in
    let oc = open_out out in
    output_string oc "[\n";
    output_string oc (String.concat ",\n" rows);
    output_string oc "\n]\n";
    close_out oc;
    Printf.printf "wrote %s (%d points)\n" out (List.length rows)
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ resilience_term $ workloads_arg $ mshrs_arg $ line_arg
      $ out_arg $ sim_mode_arg)

let analyze_cmd =
  let doc =
    "Run the paper's analyses on a workload: locality classes, dependence \
     graphs, recurrences and the f estimate for every innermost loop."
  in
  let run name =
    let w = lookup name in
    let open Memclust_locality in
    let open Memclust_depgraph in
    let open Memclust_cluster in
    let p = Program.renumber w.Workload.program in
    let machine = Experiment.machine_of_config Config.base in
    let loc = Locality.analyze ~line_size:machine.Machine_model.line_size p in
    Format.printf "==== %s: locality classification ====@.%a@." w.Workload.name
      Locality.pp loc;
    let data = Data.create p in
    w.Workload.init data;
    let prof = Profile.run ~line_size:machine.Machine_model.line_size p data in
    let pm id = Profile.miss_rate prof id in
    Format.printf "==== irregular miss rates (profiled P_m) ====@.";
    List.iter
      (fun (info : Locality.info) ->
        match info.Locality.kind with
        | Locality.Leading_irregular ->
            Format.printf "  #%d: P_m = %.3f@." info.Locality.id
              (pm info.Locality.id)
        | _ -> ())
      (Locality.infos loc);
    (* every innermost loop-like construct *)
    let rec walk path stmt =
      match stmt with
      | Ast.Loop l ->
          let nested =
            List.filter
              (function Ast.Loop _ | Ast.Chase _ -> true | _ -> false)
              l.Ast.body
          in
          if nested = [] then report path (Depgraph.Counted l)
          else List.iter (walk (path @ [ l.Ast.var ])) l.Ast.body
      | Ast.Chase c -> report path (Depgraph.Chased c)
      | Ast.If (_, t, e) ->
          List.iter (walk path) t;
          List.iter (walk path) e
      | Ast.Assign _ | Ast.Use _ | Ast.Barrier | Ast.Prefetch _ -> ()
    and report path inner =
      let label =
        match inner with
        | Depgraph.Counted l -> "loop " ^ l.Ast.var
        | Depgraph.Chased c -> "chase " ^ c.Ast.cvar
      in
      let graph = Depgraph.analyze loc inner in
      let fest = Festimate.compute machine loc ~pm ~graph inner in
      Format.printf "@.==== innermost %s (under %s) ====@.%a@.alpha = %.2f@.%a@."
        label
        (String.concat ">" path)
        Depgraph.pp graph (Depgraph.alpha graph) Festimate.pp fest
    in
    List.iter (walk []) p.Ast.body
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ workload_arg)

let passes_arg =
  let doc =
    "Comma-separated pass names to run instead of the default pipeline \
     (see `repro trace` output for the registered names); uniquify is \
     always included."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' pass_conv)) None
    & info [ "passes" ] ~docv:"PASS,.." ~doc)

let show_cmd =
  let doc = "Print a workload's IR before and after clustering." in
  let run name only =
    let w = lookup name in
    Format.printf "==== %s: base ====@.%a@.@." w.Workload.name Pretty.pp_program
      w.Workload.program;
    let open Memclust_cluster in
    let p, report = Experiment.transform ?passes:only Config.base w in
    Format.printf "==== clustering decisions ====@.%a@.@." Driver.pp_report
      report;
    Format.printf "==== %s: clustered ====@.%a@." w.Workload.name
      Pretty.pp_program p
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ workload_arg $ passes_arg)

let trace_cmd =
  let doc =
    "Run the clustering pipeline on workloads and report the per-pass \
     instrumentation trace (wall time, IR-size delta, f/alpha summaries)."
  in
  let workloads_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD")
  in
  let dump_after_arg =
    let doc = "Print the IR as it leaves pass $(docv)." in
    Arg.(value & opt (some pass_conv) None & info [ "dump-after" ] ~docv:"PASS" ~doc)
  in
  let json_arg =
    let doc = "Write the traces as a JSON array to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)
  in
  let run () names only dump_after json_file =
    let open Memclust_cluster in
    let ws =
      match names with
      | [] -> Registry.latbench () :: Registry.applications ()
      | names -> List.map lookup names
    in
    let traces =
      List.map
        (fun (w : Workload.t) ->
          let _, report = Experiment.transform ?passes:only Config.base w in
          Option.iter
            (fun target ->
              List.iter
                (fun (pass, p) ->
                  if String.equal pass target then
                    Format.printf "==== %s: IR after %s ====@.%a@.@."
                      w.Workload.name pass Pretty.pp_program p)
                (Pass.Pipeline.accepted report.Driver.trace))
            dump_after;
          Format.printf "%a@." Pass.Pipeline.pp_trace report.Driver.trace;
          report.Driver.trace)
        ws
    in
    match json_file with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc "[\n";
        List.iteri
          (fun i t ->
            if i > 0 then output_string oc ",\n";
            output_string oc (Pass.Pipeline.trace_to_json t))
          traces;
        output_string oc "\n]\n";
        close_out oc;
        Printf.printf "wrote %s (%d trace%s)\n" file (List.length traces)
          (if List.length traces = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ resilience_term $ workloads_arg $ passes_arg $ dump_after_arg
      $ json_arg)

let () =
  let doc =
    "Reproduction of 'Code Transformations to Improve Memory Parallelism' \
     (Pai & Adve, MICRO-32 1999)"
  in
  let info = Cmd.info "repro" ~doc in
  (* fail fast if a preset was edited into an inconsistent state *)
  List.iter Config.validate_exn
    [ Config.base; Config.exemplar_like; Config.three_level ];
  (* and on a bad MEMCLUST_CHAOS_PASSES / MEMCLUST_FAIL_PASS, naming the
     valid values, rather than deep inside a worker domain *)
  (try ignore (Memclust_cluster.Driver.chaos_of_env ())
   with Invalid_argument m -> prerr_endline m; exit 1);
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            experiment_cmd;
            run_cmd;
            sweep_cmd;
            show_cmd;
            analyze_cmd;
            trace_cmd;
          ]))

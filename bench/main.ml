(* Benchmark harness.

   Two parts:

   1. Reproduction of every table and figure in the paper's evaluation
      (Table 1, Table 2, Section 5.1 Latbench, Figure 3(a)/(b), Table 3,
      Figure 4(a)/(b), Section 5.2 1 GHz) — each regenerated from scratch
      by the experiment harness and printed next to the paper's numbers.
      Pass experiment ids as arguments to run a subset.
      MEMCLUST_SIM_MODE selects the simulator core, cycle or event
      (default event); both give identical numbers.

   2. Bechamel microbenchmarks of the pipeline stages those experiments
      are built from (analysis, transformation, lowering, simulation), so
      regressions in the machinery itself are visible. Pass "micro" to run
      only these.

   The JSON trail (BENCH_micro.json) is written at the repo root
   regardless of the working directory.  *)

open Bechamel
open Toolkit
open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Memclust_transform
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness

(* JSON trails go next to dune-project so "dune exec bench/main.exe" and a
   direct _build/default/bench/main.exe run agree on where they land. *)
let repo_root () =
  let rec up d =
    if Sys.file_exists (Filename.concat d "dune-project") then d
    else
      let parent = Filename.dirname d in
      if String.equal parent d then Sys.getcwd () else up parent
  in
  up (Sys.getcwd ())

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures                              *)
(* ------------------------------------------------------------------ *)

let run_experiments ids =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
      match Figures.by_id id with
      | Some f -> Printf.printf "==== %s ====\n%s\n\n%!" id (f ())
      | None -> Printf.eprintf "unknown experiment id %s\n" id)
    ids;
  Printf.printf
    "==== sweep wall-clock: %.1f s (%d experiments, sim mode %s, %d pool \
     domains) ====\n\
     %!"
    (Unix.gettimeofday () -. t0)
    (List.length ids)
    (Machine.mode_to_string (Machine.default_mode ()))
    (Memclust_util.Domain_pool.size (Memclust_util.Domain_pool.default ()))

(* ------------------------------------------------------------------ *)
(* Part 1b: per-pass transformation time                               *)
(* ------------------------------------------------------------------ *)

(* Wall time each pipeline pass spends on each workload, straight from
   the pass manager's instrumentation trace — the transformation-side
   complement to the microbenchmarks below. *)
let run_pass_times () =
  let ws = Registry.latbench () :: Registry.applications () in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let machine =
          {
            (Experiment.machine_of_config Config.base) with
            Machine_model.max_procs = max 1 w.Workload.mp_procs;
          }
        in
        let options = { Driver.default_options with machine } in
        let _, report =
          Driver.run ~options ~init:w.Workload.init w.Workload.program
        in
        let t = report.Driver.trace in
        w.Workload.name
        :: List.map
             (fun (e : Pass.Pipeline.entry) ->
               if e.Pass.Pipeline.ran then
                 Memclust_util.Table.fmt_float e.Pass.Pipeline.wall_ms
               else "-")
             t.Pass.Pipeline.entries)
      ws
  in
  Printf.printf "==== per-pass transformation time (ms) ====\n";
  Memclust_util.Table.print ~header:("workload" :: Driver.pass_names) rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: pipeline microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

(* a small matrix-traversal nest (the Figure 2 example) *)
let fig2_program n =
  let open Builder in
  program "fig2"
    ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "s" n ]
    [
      loop "j" (cst 0) (cst n)
        [
          loop "i" (cst 0) (cst n)
            [
              store (aref "s" (ix "j"))
                (arr "s" (ix "j") + arr "a" (idx2 ~cols:n (ix "j") (ix "i")));
            ];
        ];
    ]

let micro_tests () =
  let n = 64 in
  let p = fig2_program n in
  let loc = Locality.analyze ~line_size:64 p in
  let inner =
    match p.Ast.body with
    | [ Ast.Loop l ] -> (
        match l.Ast.body with
        | [ Ast.Loop i ] -> Depgraph.Counted i
        | _ -> assert false)
    | _ -> assert false
  in
  let outer =
    match p.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false
  in
  let graph = Depgraph.analyze loc inner in
  let data = Data.create p in
  let em3d = Em3d.make ~nodes:512 ~degree:4 () in
  let affine = Affine.of_terms [ ("i", 1); ("j", n) ] 3 in
  let env v = if String.equal v "i" then 7 else 11 in
  let small_sim () =
    let d = Data.create p in
    let lowered = Lower.build ~nprocs:1 p d in
    ignore (Machine.run Config.base ~home:(fun _ -> 0) lowered)
  in
  [
    Test.make ~name:"affine-eval" (Staged.stage (fun () -> Affine.eval env affine));
    Test.make ~name:"locality-analyze"
      (Staged.stage (fun () -> Locality.analyze ~line_size:64 p));
    Test.make ~name:"depgraph-analyze"
      (Staged.stage (fun () -> Depgraph.analyze loc inner));
    Test.make ~name:"f-estimate"
      (Staged.stage (fun () ->
           Festimate.compute Machine_model.base loc ~pm:(fun _ -> 1.0) ~graph inner));
    Test.make ~name:"unroll-and-jam"
      (Staged.stage (fun () -> Unroll_jam.apply ~factor:8 outer));
    Test.make ~name:"scalar-replace"
      (Staged.stage (fun () -> Scalar_replace.apply_innermost p));
    Test.make ~name:"miss-pack-schedule"
      (Staged.stage (fun () -> Schedule.pack_misses loc outer.Ast.body));
    Test.make ~name:"lower-trace"
      (Staged.stage (fun () -> Lower.build ~nprocs:1 p (Data.copy data)));
    Test.make ~name:"simulate-small" (Staged.stage small_sim);
    Test.make ~name:"profile-pm"
      (Staged.stage (fun () ->
           let d = Data.create em3d.Workload.program in
           em3d.Workload.init d;
           Profile.run em3d.Workload.program d));
    Test.make ~name:"cluster-driver"
      (Staged.stage (fun () ->
           Driver.run
             ~options:{ Driver.default_options with profile_pm = false }
             p));
  ]

let run_micro () =
  let tests = Test.make_grouped ~name:"memclust" ~fmt:"%s %s" (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Bechamel.Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "==== microbenchmarks (ns per run) ====\n";
  let json_rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "  %-36s %12.1f\n" name est;
              json_rows := (name, Some est) :: !json_rows
          | Some l ->
              Printf.printf "  %-36s %12s\n" name
                (String.concat ","
                   (List.map (fun e -> Printf.sprintf "%.1f" e) l));
              json_rows := (name, None) :: !json_rows
          | None ->
              Printf.printf "  %-36s %12s\n" name "n/a";
              json_rows := (name, None) :: !json_rows)
        rows)
    results;
  print_newline ();
  (* machine-readable trail for tracking the perf trajectory across PRs *)
  let rows = List.rev !json_rows in
  let oc = open_out (Filename.concat (repo_root ()) "BENCH_micro.json") in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (match est with Some e -> Printf.sprintf "%.1f" e | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "(ns/run also written to BENCH_micro.json)\n%!"

let () =
  (* fail fast if a preset was edited into an inconsistent state *)
  List.iter Config.validate_exn
    [ Config.base; Config.exemplar_like; Config.three_level ];
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      run_experiments Figures.all_ids;
      run_pass_times ();
      run_micro ()
  | [ "micro" ] -> run_micro ()
  | [ "passes" ] -> run_pass_times ()
  | ids -> run_experiments ids

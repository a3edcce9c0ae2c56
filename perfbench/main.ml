(* One benchmark iteration of one workload, in a fresh process.

   The benchmark drives the public entry points of every layer of the
   pipeline — clustering ([Experiment.transform], hence [Driver]), the IR
   executor ([Exec]), lowering ([Lower]), the simulator ([Machine]) and
   the experiment harness ([Experiment.execute_cached]) — sequentially,
   from one process and one domain. An iteration is:

   - set-up: clear every memo cache, build the workloads, execute each
     source program once for its reference store and, on sim-mp, cluster
     the programs. Set-up runs [setups] times; each is timed.
   - the timed region: the workload's points, in an order the seed
     permutes.
   - output checks, outside the timed region.

   With [--trace 1] each call into a layer runs inside a span
   ({!Spans}); the per-layer metrics come from the spans. The result is
   one JSON object, the last line of standard output; [run.py] starts
   the iterations and aggregates them.

   Subcommands:
     iter --workload W --seed N [--trace 0|1] [--spans FILE]
     selftest    every workload at Registry.small sizes, untraced then
                 traced with one seed: exact metrics must agree and every
                 output check pass
     pins        print the outputs expected.ml pins *)

open Memclust_ir
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness
module Analysis_cache = Memclust_util.Analysis_cache

(* Each of these changes what the pipeline computes or how it runs
   (simulation mode, fault injection, pass sabotage, parallelism,
   watchdogs), so a run under any of them would measure something
   else. *)
let forbidden_env =
  [
    "MEMCLUST_SIM_MODE";
    "MEMCLUST_FAULTS";
    "MEMCLUST_CHAOS_PASSES";
    "MEMCLUST_FAIL_PASS";
    "MEMCLUST_DOMAINS";
    "MEMCLUST_WATCHDOG_CYCLES";
    "MEMCLUST_TIME_BUDGET_S";
  ]

let check_env () =
  List.iter
    (fun v ->
      if Option.is_some (Sys.getenv_opt v) then begin
        Printf.eprintf "perfbench: refusing to run: %s is set\n%!" v;
        exit 2
      end)
    forbidden_env

(* ------------------------------------------------------------------ *)
(* Workloads and points                                                *)
(* ------------------------------------------------------------------ *)

type workload = Compile | Sim_mp | Lp_sweep

let workloads = [ ("compile", Compile); ("sim-mp", Sim_mp); ("lp-sweep", Lp_sweep) ]

let program_names = function
  | Compile -> [ "Latbench"; "Em3d"; "Erlebacher"; "FFT"; "LU"; "Mp3d"; "MST"; "Ocean" ]
  | Sim_mp -> [ "Em3d"; "FFT"; "LU"; "Ocean" ]
  | Lp_sweep -> [ "Latbench"; "MST" ]

let lp_points = [ 1; 2; 4; 8; 16 ]

(* set-ups per iteration: a short set-up is repeated so that its median
   is not one noisy sample *)
let setups = function Compile -> 3 | Sim_mp -> 1 | Lp_sweep -> 5

let programs ~small workload =
  let all =
    if small then Registry.small ()
    else Registry.latbench () :: Registry.applications ()
  in
  List.map
    (fun n -> List.find (fun w -> String.equal w.Workload.name n) all)
    (program_names workload)

type version = Base | Clustered

let version_name = function Base -> "base" | Clustered -> "clustered"

type point = {
  w : Workload.t;
  nprocs : int;
  lp : int option;  (** lp-sweep only *)
  version : version;
}

(* the (program, machine) pair a point belongs to: a base and a
   clustered point share it *)
let pair_key p =
  match p.lp with
  | Some lp -> Printf.sprintf "%s@lp%d" p.w.Workload.name lp
  | None when p.nprocs > 1 -> Printf.sprintf "%s@p%d" p.w.Workload.name p.nprocs
  | None -> p.w.Workload.name

let point_label p = pair_key p ^ "/" ^ version_name p.version

let points workload ws =
  let both w ~nprocs ~lp =
    [ { w; nprocs; lp; version = Base }; { w; nprocs; lp; version = Clustered } ]
  in
  match workload with
  | Compile -> List.map (fun w -> { w; nprocs = 1; lp = None; version = Clustered }) ws
  | Sim_mp -> List.concat_map (fun w -> both w ~nprocs:w.Workload.mp_procs ~lp:None) ws
  | Lp_sweep ->
      List.concat_map
        (fun w -> List.concat_map (fun lp -> both w ~nprocs:1 ~lp:(Some lp)) lp_points)
        ws

let permute seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The machine of a point: the paper's base system. lp-sweep points set
   every MSHR file to lp and are renamed per point, as
   [Figures.mshr_sweep] does, so the harness memo keeps them apart. *)
let machine_of p =
  match p.lp with
  | None -> Config.base
  | Some lp ->
      Config.with_sim_mode "event"
        { (Config.with_mshrs lp Config.base) with
          Config.name = Printf.sprintf "base-mshr%d" lp }

(* ... with the workload's scaled L2, as the harness applies it *)
let config_of p = Config.with_l2 p.w.Workload.l2_bytes (machine_of p)

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let span = Spans.with_span

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)
(* ------------------------------------------------------------------ *)

(* The host drifts between speed phases that last minutes and move every
   host time of a run together (runs up to 35% faster on a 2-core VM). A
   fixed kernel of the kind of work the pipeline does — allocation, minor
   collections, promotion — slows and speeds with those phases, where
   compute-bound or memory-latency-bound kernels were seen not to. It runs
   between the points of each iteration, on a collected heap and with the
   GC settings pinned, so no change to the program under test changes its
   work; run.py scales host times by a reference kernel time over this
   iteration's median kernel time. *)
let kernel () =
  let gc = Gc.get () in
  let pinned = { gc with Gc.minor_heap_size = 262_144; space_overhead = 120 } in
  if gc <> pinned then Gc.set pinned;
  let t0 = Unix.gettimeofday () in
  let a = Array.init (1 lsl 20) (fun i -> i * 7919) in
  let h = Hashtbl.create 16 in
  for i = 1 to 3 lsl 20 do
    if i land 7 = 0 then Hashtbl.replace h (i land 15) [ a.(i land 0xFFFFF); i ]
  done;
  let l = List.init 200_000 (fun i -> (i, float_of_int i)) in
  let kept = List.filter (fun (k, _) -> k land 3 = 0) l in
  ignore (Sys.opaque_identity (Hashtbl.length h, List.length kept));
  let t = Unix.gettimeofday () -. t0 in
  if gc <> pinned then Gc.set gc;
  t

(* Two kernel runs on a collected heap (every set-up and point ends with
   a full collection), then their garbage collected, so the timed work
   after them never sees it. *)
let calibrate kernel_s =
  kernel_s := kernel () :: kernel () :: !kernel_s;
  Gc.full_major ()

(* host seconds of [f ()] together with the collection of the garbage it
   leaves, so the time does not depend on what runs next *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Gc.full_major ();
  (r, Unix.gettimeofday () -. t0)

type run = {
  setup_s : float list;
  wall_s : float;
  peak_heap_mb : float;
  order : string list;
  ops : int;
  failures : (string * string) list;  (** (point, reason), one per failed point *)
  speedup : float;
  exact : (string * float) list;  (** must repeat exactly *)
  layers : (string * float) list;  (** host measurements; traced runs only *)
  kernel_s : float list;  (** calibration kernel times; empty if not calibrated *)
  observed : (string * int) list;  (** the values {!Expected.pins} pins *)
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* the source program's final store: the reference every output check
   compares with *)
let reference_store (w : Workload.t) =
  let d = Data.create w.Workload.program in
  w.Workload.init d;
  span "ir" (fun () -> Exec.run w.Workload.program d);
  d

(* the final store of a fresh execution of [program] on the workload's
   data *)
let exec (w : Workload.t) program =
  let d = Data.create program in
  w.Workload.init d;
  Exec.run program d;
  d

let geomean = function
  | [] -> 1.0 (* the empty product: compile simulates nothing *)
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let pass_names =
  [ "uniquify"; "analyze"; "unroll-jam"; "window-unroll"; "scalar-replace"; "schedule" ]

(* Cluster-layer counts and per-pass times over the distinct reports of
   the run (a memo hit returns the same physical report, which must
   count once). *)
let cluster_metrics reports =
  let distinct =
    List.fold_left
      (fun acc r -> if List.memq r acc then acc else r :: acc)
      [] reports
  in
  let entries =
    List.concat_map (fun (r : Driver.report) -> r.Driver.trace.Pass.Pipeline.entries) distinct
  in
  let count p xs = float_of_int (List.length (List.filter p xs)) in
  let actions =
    List.concat_map
      (fun (r : Driver.report) ->
        List.concat_map (fun (n : Driver.nest_report) -> n.Driver.actions) r.Driver.nests)
      distinct
  in
  let pass_ms name =
    List.fold_left
      (fun acc e ->
        if String.equal e.Pass.Pipeline.pass_name name then acc +. e.Pass.Pipeline.wall_ms
        else acc)
      0.0 entries
  in
  ( [ ("cluster.degraded", count (fun e -> Option.is_some e.Pass.Pipeline.degraded) entries);
      ("cluster.unroll_jam", count (function Driver.Unroll_jam _ -> true | _ -> false) actions) ],
    List.map (fun n -> (Printf.sprintf "cluster.pass.%s_ms" n, pass_ms n)) pass_names )

(* simulated counters over every simulated point of the run *)
let sim_metrics sims =
  let sum f = List.fold_left (fun a (p, r) -> a +. f p r) 0.0 sims in
  let cycles v = sum (fun p r -> if p.version = v then float_of_int r.Machine.cycles else 0.0) in
  let weighted f w =
    let total = sum w in
    if total = 0.0 then 0.0 else sum (fun p r -> f r *. w p r) /. total
  in
  let read_misses _ r = float_of_int r.Machine.read_misses in
  let by_cycles _ r = float_of_int r.Machine.cycles in
  [
    ("sim.base.mcycles", cycles Base /. 1e6);
    ("sim.clustered.mcycles", cycles Clustered /. 1e6);
    ("sim.read_misses", sum read_misses);
    ("sim.mshr_full_events", sum (fun _ r -> float_of_int r.Machine.mshr_full_events));
    ( "sim.avg_read_miss_latency",
      weighted (fun r -> r.Machine.avg_read_miss_latency) read_misses );
    ("sim.bus_utilization", weighted (fun r -> r.Machine.bus_utilization) by_cycles);
    ("sim.bank_utilization", weighted (fun r -> r.Machine.bank_utilization) by_cycles);
    ("sim.instructions", sum (fun _ r -> float_of_int r.Machine.instructions));
    ("sim.cycles", sum by_cycles);
  ]

(* geometric mean over the run's (program, machine) pairs of base cycles
   over clustered cycles *)
let speedup_of sims =
  let base = Hashtbl.create 16 in
  List.iter
    (fun (p, r) -> if p.version = Base then Hashtbl.replace base (pair_key p) r.Machine.cycles)
    sims;
  geomean
    (List.filter_map
       (fun (p, r) ->
         if p.version = Clustered then
           Option.map
             (fun b -> float_of_int b /. float_of_int r.Machine.cycles)
             (Hashtbl.find_opt base (pair_key p))
         else None)
       sims)

let run_workload ~workload ~seed ~traced ~setups ~small ~calibrated =
  let kernel_s = ref [] in
  let calibrate () = if calibrated then calibrate kernel_s in
  let failures = Hashtbl.create 8 in
  let fail p reason =
    if not (Hashtbl.mem failures (point_label p)) then
      Hashtbl.replace failures (point_label p) reason
  in
  let guarded p f = try f () with e -> fail p (Printexc.to_string e) in
  (* set-up, [setups] times; spans record only the last one, so a traced
     run's per-layer metrics cover one set-up and one timed region *)
  let setup () =
    Experiment.clear_caches ();
    let ws = programs ~small workload in
    let refs = List.map (fun w -> (w.Workload.name, reference_store w)) ws in
    let clustered =
      if workload = Sim_mp then
        List.map
          (fun w ->
            ( w.Workload.name,
              span "cluster" (fun () ->
                  Experiment.transform (Config.with_l2 w.Workload.l2_bytes Config.base) w) ))
          ws
      else []
    in
    (ws, refs, clustered)
  in
  let setup_s = ref [] and state = ref None in
  for i = 1 to setups do
    Spans.enabled := traced && i = setups;
    calibrate ();
    let st, t = timed setup in
    state := Some st;
    setup_s := t :: !setup_s
  done;
  let ws, refs, clustered = Option.get !state in
  let reference p = List.assoc p.w.Workload.name refs in
  let order = permute seed (points workload ws) in
  let reports = ref (List.map (fun (_, (_, r)) -> r) clustered) in
  let sims = ref [] in
  let observed = ref [] in
  let simulated p r =
    sims := (p, r) :: !sims;
    if p.version = Base then observed := (p, pair_key p ^ ".base_cycles", r.Machine.cycles) :: !observed
  in
  let lowered_instructions = ref 0 in
  let same_as_source p store what =
    if not (Data.equal (reference p) store) then
      fail p (what ^ " differs from the source program's final store")
  in
  (* run a point; return its output check, which runs untimed *)
  let do_point p =
    let cfg = config_of p in
    match workload with
    | Compile ->
        let prog, report = span "cluster" (fun () -> Experiment.transform cfg p.w) in
        reports := report :: !reports;
        let size = Pass.Pipeline.measure prog in
        let name = p.w.Workload.name in
        observed :=
          (p, name ^ ".stmts", size.Pass.Pipeline.stmts)
          :: (p, name ^ ".static_refs", size.Pass.Pipeline.static_refs)
          :: !observed;
        fun () -> same_as_source p (exec p.w prog) "clustered program's final store"
    | Sim_mp ->
        let program =
          match p.version with
          | Base -> Program.renumber p.w.Workload.program
          | Clustered -> fst (List.assoc p.w.Workload.name clustered)
        in
        let data, lowered, home =
          span "codegen" (fun () ->
              let d = Data.create program in
              p.w.Workload.init d;
              let l = Lower.build ~nprocs:p.nprocs program d in
              (d, l, Data.home_of_addr d ~nprocs:p.nprocs))
        in
        lowered_instructions := !lowered_instructions + Lower.total_instructions lowered;
        let r =
          span ("sim." ^ version_name p.version) (fun () ->
              Machine.run ~mode:Machine.Event cfg ~home lowered)
        in
        simulated p r;
        (* base and clustered both equal to the source's store: so equal
           to each other *)
        fun () -> same_as_source p data "store after lowering"
    | Lp_sweep ->
        (* clustering first, so its span is separate: execute_cached then
           takes the clustering from the memo *)
        if p.version = Clustered then
          reports := snd (span "cluster" (fun () -> Experiment.transform cfg p.w)) :: !reports;
        let spec =
          { Experiment.workload = p.w;
            config = machine_of p;
            nprocs = 1;
            version = (if p.version = Base then Experiment.Base else Experiment.Clustered) }
        in
        let o = span "harness" (fun () -> Experiment.execute_cached spec) in
        simulated p o.Experiment.result;
        fun () ->
          if p.version = Clustered then
            same_as_source p (exec p.w o.Experiment.program) "clustered program's final store"
  in
  (* Each point's time includes collecting the garbage it leaves, the
     next point starts from a collected heap, and no point's output is
     kept past its check, so the seed's order moves no work between
     points. (The heap peak still depends on the order, through GC
     pacing.) *)
  let wall_s = ref 0.0 in
  List.iter
    (fun p ->
      calibrate ();
      let check, t =
        timed (fun () ->
            try span "point" (fun () -> do_point p)
            with e ->
              fail p (Printexc.to_string e);
              ignore)
      in
      wall_s := !wall_s +. t;
      guarded p check)
    order;
  Spans.enabled := false;
  let wall_s = !wall_s in
  let peak_heap_mb = peak_heap_mb () in
  let memo_entries =
    List.fold_left (fun a (_, n) -> a + n) 0 (Analysis_cache.registered ())
  in
  if not small then
    List.iter
      (fun (p, key, v) ->
        match List.assoc_opt key Expected.pins with
        | Some e when e = v -> ()
        | Some e -> fail p (Printf.sprintf "%s is %d, pinned %d" key v e)
        | None -> fail p (key ^ " has no pinned value"))
      !observed;
  let cluster_counts, pass_ms = cluster_metrics !reports in
  let sim_counts = sim_metrics !sims in
  let exact =
    cluster_counts @ sim_counts
    @ [ ("codegen.minstr", float_of_int !lowered_instructions /. 1e6);
        ("harness.memo_entries", float_of_int memo_entries) ]
  in
  let layers =
    if not traced then []
    else begin
      let spans = Spans.all () in
      let self pred = Spans.self_seconds spans pred in
      let alloc_mw pred = Spans.alloc_words spans pred /. 1e6 in
      let is = String.equal and sim_span = String.starts_with ~prefix:"sim." in
      let cluster_s = self (is "cluster") and ir_s = self (is "ir") in
      let sim_s = self sim_span in
      let per x y = if y = 0.0 then 0.0 else x /. y in
      [
        ("cluster.s", cluster_s);
        ("cluster.exec_equiv", per cluster_s ir_s);
        ("cluster.alloc_mw", alloc_mw (is "cluster"));
        ("ir.exec_s", ir_s);
        ("codegen.s", self (is "codegen"));
        ("codegen.alloc_mw", alloc_mw (is "codegen"));
        ("sim.s", sim_s);
        ("sim.base.s", self (is "sim.base"));
        ("sim.clustered.s", self (is "sim.clustered"));
        ("sim.minstr_per_s", per (List.assoc "sim.instructions" sim_counts /. 1e6) sim_s);
        ("sim.host_ns_per_cycle", per (sim_s *. 1e9) (List.assoc "sim.cycles" sim_counts));
        ("sim.alloc_mw", alloc_mw sim_span);
        ("harness.execute_s", self (is "harness"));
        ("trace.wall_s", wall_s);
      ]
      @ pass_ms
    end
  in
  {
    setup_s = List.rev !setup_s;
    wall_s;
    peak_heap_mb;
    order = List.map point_label order;
    ops = List.length order;
    failures = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) failures []);
    speedup = speedup_of !sims;
    exact;
    layers;
    kernel_s = List.rev !kernel_s;
    observed = List.rev_map (fun (_, k, v) -> (k, v)) !observed;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_string s = Printf.sprintf "%S" s (* names and reasons are plain ASCII *)

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"
let json_metrics ms = json_obj (List.map (fun (k, v) -> (k, json_float v)) ms)

let run_json ~name ~seed r =
  json_obj
    [
      ("workload", json_string name);
      ("seed", string_of_int seed);
      ("order", json_list json_string r.order);
      ("setup_s", json_list json_float r.setup_s);
      ("wall_s", json_float r.wall_s);
      ("peak_heap_mb", json_float r.peak_heap_mb);
      ("speedup", json_float r.speedup);
      ("ops", string_of_int r.ops);
      ("ops_failed", string_of_int (List.length r.failures));
      ( "failures",
        json_list
          (fun (p, why) -> json_obj [ ("point", json_string p); ("reason", json_string why) ])
          r.failures );
      ("exact", json_metrics r.exact);
      ("layers", json_metrics r.layers);
      ("kernel_s", json_list json_float r.kernel_s);
    ]

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let iter args =
  let name = ref "" and seed = ref 0 and traced = ref false in
  let spans_file = ref "" in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--workload", Arg.Set_string name, "compile | sim-mp | lp-sweep");
      ("--seed", Arg.Set_int seed, "permutes the order of the points");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "1 = record spans");
      ("--spans", Arg.Set_string spans_file, "write the spans here (traced runs)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe iter --workload W --seed N";
  let workload =
    match List.assoc_opt !name workloads with
    | Some w -> w
    | None -> raise (Arg.Bad ("unknown workload " ^ !name))
  in
  let r =
    run_workload ~workload ~seed:!seed ~traced:!traced ~setups:(setups workload) ~small:false
      ~calibrated:true
  in
  if !traced && !spans_file <> "" then
    Spans.write
      ~run_id:(Printf.sprintf "%s-seed%d-pid%d" !name !seed (Unix.getpid ()))
      !spans_file (Spans.all ());
  print_endline (run_json ~name:!name ~seed:!seed r)

let selftest () =
  (* the harness logs every point it runs to stderr *)
  Unix.dup2 (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0) Unix.stderr;
  let ok = ref true in
  List.iter
    (fun (name, workload) ->
      let run traced =
        run_workload ~workload ~seed:7 ~traced ~setups:1 ~small:true ~calibrated:false
      in
      let a = run false and b = run true in
      let check what good =
        if not good then begin
          ok := false;
          Printf.printf "FAIL %s: %s\n" name what
        end
      in
      List.iter
        (fun (p, why) -> check (Printf.sprintf "output check %s (%s)" p why) false)
        (a.failures @ b.failures);
      check "speedup differs between runs" (a.speedup = b.speedup);
      check "exact metrics differ between runs" (a.exact = b.exact);
      check "pinned outputs differ between runs" (a.observed = b.observed);
      check "point order differs between runs" (a.order = b.order);
      check "no points" (a.ops > 0);
      Printf.printf "%s: %d points, speedup %.4f\n%!" name a.ops a.speedup)
    workloads;
  if not !ok then exit 1

let pins () =
  print_string "let pins =\n  [\n";
  List.iter
    (fun (_, workload) ->
      let r =
        run_workload ~workload ~seed:0 ~traced:false ~setups:1 ~small:false ~calibrated:false
      in
      List.iter (fun (k, v) -> Printf.printf "    (%S, %d);\n" k v) (List.sort compare r.observed))
    workloads;
  print_string "  ]\n"

let () =
  check_env ();
  match Array.to_list Sys.argv with
  | _ :: "iter" :: _ -> (
      try iter (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) with
      | Arg.Bad msg | Arg.Help msg ->
          prerr_endline msg;
          exit 2)
  | [ _; "selftest" ] -> selftest ()
  | [ _; "pins" ] -> pins ()
  | _ ->
      prerr_endline
        "usage: main.exe (iter --workload W --seed N [--trace 0|1] | selftest | pins)";
      exit 2

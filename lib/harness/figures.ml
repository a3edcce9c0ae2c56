open Memclust_util
open Memclust_sim
open Memclust_workloads

let buf_print f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let spec ~config ~nprocs ~version w =
  { Experiment.workload = w; config; nprocs; version }

let run ~config ~nprocs ~version w =
  Experiment.execute_cached (spec ~config ~nprocs ~version w)

(* Each figure's experiment points are independent (workload, config,
   nprocs, version) simulations: evaluate them across the shared domain
   pool first, then assemble the tables from the (now warm) memo cache.
   The fan-out is crash-contained: a point that deadlocks or crashes is
   logged and dropped here, and only the figure that later reads it
   (inline, under run_safe's guard) degrades — the others still come
   from the warm cache. *)
let prewarm specs =
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun s ->
        let k = Experiment.spec_key s in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      specs
  in
  let results =
    Domain_pool.map_result ~task_name:Experiment.spec_key
      (Domain_pool.default ())
      Experiment.execute_cached unique
  in
  List.iter2
    (fun s r ->
      match r with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "[degraded] %s: %s\n%!" (Experiment.spec_key s)
            (Memclust_util.Error.to_string e))
    unique results

let base_and_clustered ~config ~nprocs w =
  [
    spec ~config ~nprocs ~version:Experiment.Base w;
    spec ~config ~nprocs ~version:Experiment.Clustered w;
  ]

let reduction_pct base clust =
  100.0 *. (1.0 -. (float_of_int clust /. float_of_int base))

(* ------------------------------------------------------------------ *)

let table1 () =
  buf_print (fun ppf ->
      Format.fprintf ppf
        "Table 1: base simulated configuration (paper Table 1)@.@.%a@.@.\
         1 GHz variant:@.%a@.@.Exemplar-like system (Section 4.1):@.%a@."
        Config.pp Config.base Config.pp (Config.ghz Config.base) Config.pp
        Config.exemplar_like)

let paper_sizes =
  [
    ("Latbench", "6.4M data", "1");
    ("Em3d", "32K nodes, deg. 20, 20% rem.", "1,16");
    ("Erlebacher", "64x64x64 cube, block 8", "1,16");
    ("FFT", "65536 points", "1,16");
    ("LU", "256x256 matrix, block 16", "1,8");
    ("Mp3d", "100K particles", "1,8");
    ("MST", "1024 nodes", "1");
    ("Ocean", "258x258 grid", "1,8");
  ]

let table2 () =
  let ws = Registry.latbench () :: Registry.applications () in
  let rows =
    List.map
      (fun w ->
        let paper_size, paper_procs =
          match List.assoc_opt w.Workload.name
                  (List.map (fun (n, s, p) -> (n, (s, p))) paper_sizes)
          with
          | Some (s, p) -> (s, p)
          | None -> ("-", "-")
        in
        [
          w.Workload.name;
          w.Workload.description;
          (if w.Workload.mp_procs > 1 then
             Printf.sprintf "1,%d" w.Workload.mp_procs
           else "1");
          Printf.sprintf "%dKB" (w.Workload.l2_bytes / 1024);
          paper_size;
          paper_procs;
        ])
      ws
  in
  "Table 2: workload sizes and processors (ours, scaled per Woo et al. | paper's)\n\n"
  ^ Table.render
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left; Table.Right ]
      ~header:
        [ "Workload"; "our input"; "procs"; "L2"; "paper input"; "paper procs" ]
      rows

(* ------------------------------------------------------------------ *)

let latbench_on config label paper_base paper_clust =
  let w = Registry.latbench () in
  prewarm (base_and_clustered ~config ~nprocs:1 w);
  let b = run ~config ~nprocs:1 ~version:Experiment.Base w in
  let c = run ~config ~nprocs:1 ~version:Experiment.Clustered w in
  let ns = Machine.ns_per_cycle config in
  let stall_ns o =
    let r = o.Experiment.result in
    ns *. r.Machine.breakdown.Breakdown.data_stall
    /. float_of_int (max 1 r.Machine.read_misses)
  in
  let lat_ns o =
    ns *. o.Experiment.result.Machine.avg_read_miss_latency
  in
  let sb = stall_ns b and sc = stall_ns c in
  [
    [ label ^ " base"; Table.fmt_float sb; Table.fmt_float (lat_ns b); "1.00";
      paper_base ];
    [ label ^ " clustered"; Table.fmt_float sc; Table.fmt_float (lat_ns c);
      Table.fmt_float (sb /. sc) ^ "x"; paper_clust ];
    [ label ^ " bus/bank util";
      Table.fmt_pct b.Experiment.result.Machine.bus_utilization;
      Table.fmt_pct c.Experiment.result.Machine.bus_utilization;
      Table.fmt_pct c.Experiment.result.Machine.bank_utilization; "-" ];
  ]

let latbench () =
  let rows =
    latbench_on Config.base "simulated" "171 ns" "32 ns (5.34x)"
    @ latbench_on Config.exemplar_like "exemplar-like" "502 ns" "87 ns (5.77x)"
  in
  "Section 5.1: Latbench read-miss stall time (paper: 171->32 ns simulated,\n\
   502->87 ns Exemplar; speedups 5.34x / 5.77x, limited by bus+memory\n\
   bandwidth rather than the 10 MSHRs)\n\n"
  ^ Table.render
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:[ "system"; "stall/miss"; "avg latency"; "speedup"; "paper" ]
      rows

(* ------------------------------------------------------------------ *)

let breakdown_row name version base_cycles (o : Experiment.outcome) =
  let r = o.Experiment.result in
  let bd = r.Machine.breakdown in
  let pct v = 100.0 *. v /. float_of_int base_cycles in
  let cpu = Breakdown.cpu bd in
  [
    name;
    version;
    Table.fmt_float ~decimals:1 (pct (Breakdown.total bd));
    Table.fmt_float ~decimals:1 (pct bd.Breakdown.sync_stall);
    Table.fmt_float ~decimals:1 (pct cpu);
    Table.fmt_float ~decimals:1 (pct bd.Breakdown.data_stall);
    Plot.stacked_bar ~width:30
      ~segments:
        [
          ('S', pct bd.Breakdown.sync_stall /. 100.0);
          ('C', pct cpu /. 100.0);
          ('D', pct bd.Breakdown.data_stall /. 100.0);
        ];
  ]

let fig3 ~mp () =
  let apps =
    List.filter
      (fun w -> (not mp) || w.Workload.mp_procs > 1)
      (Registry.applications ())
  in
  prewarm
    (List.concat_map
       (fun w ->
         let nprocs = if mp then w.Workload.mp_procs else 1 in
         base_and_clustered ~config:Config.base ~nprocs w)
       apps);
  let rows =
    List.concat_map
      (fun w ->
        let nprocs = if mp then w.Workload.mp_procs else 1 in
        let b = run ~config:Config.base ~nprocs ~version:Experiment.Base w in
        let c = run ~config:Config.base ~nprocs ~version:Experiment.Clustered w in
        let bc = Experiment.exec_cycles b in
        [
          breakdown_row w.Workload.name "base" bc b;
          breakdown_row "" "clust" bc c;
        ])
      apps
  in
  Table.render
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
    ~header:[ "app"; "version"; "total"; "sync"; "CPU"; "data"; "S=sync C=cpu D=data" ]
    rows

let fig3a () =
  "Figure 3(a): multiprocessor execution time, normalized to base = 100\n\
   (paper: clustered totals Em3d 86.6, Erlebacher 69.8, FFT 78.3, LU 60.7,\n\
   Mp3d 90.6, Ocean 95.4 -> 5-39% reductions, average 20%)\n\n"
  ^ fig3 ~mp:true ()

let fig3b () =
  "Figure 3(b): uniprocessor execution time, normalized to base = 100\n\
   (paper: clustered totals Em3d 88.6, Erlebacher 55.5, FFT 73.7, LU 85.9,\n\
   Mp3d 81.5, MST 51.1, Ocean 51.6 -> 11-49% reductions, average 30%)\n\n"
  ^ fig3 ~mp:false ()

(* ------------------------------------------------------------------ *)

let table3_paper =
  [
    ("Em3d", "9.2", "13.0");
    ("Erlebacher", "21.4", "34.3");
    ("FFT", "16.6", "28.9");
    ("LU", "22.7", "23.8");
    ("Mp3d", "N/A", "21.7");
    ("MST", "N/A", "38.1");
    ("Ocean", "-2.9", "21.6");
  ]

let table3_mp_ok w =
  (* the paper runs Mp3d and MST only as uniprocessor codes on the real
     machine *)
  w.Workload.mp_procs > 1 && not (String.equal w.Workload.name "Mp3d")

let table3 () =
  let cfg = Config.exemplar_like in
  prewarm
    (List.concat_map
       (fun w ->
         base_and_clustered ~config:cfg ~nprocs:1 w
         @
         if table3_mp_ok w then
           base_and_clustered ~config:cfg ~nprocs:w.Workload.mp_procs w
         else [])
       (Registry.applications ()));
  let rows =
    List.map
      (fun w ->
        let name = w.Workload.name in
        let mp_ok = table3_mp_ok w in
        let mp =
          if mp_ok then begin
            let b = run ~config:cfg ~nprocs:w.Workload.mp_procs ~version:Experiment.Base w in
            let c = run ~config:cfg ~nprocs:w.Workload.mp_procs ~version:Experiment.Clustered w in
            Table.fmt_float ~decimals:1
              (reduction_pct (Experiment.exec_cycles b) (Experiment.exec_cycles c))
          end
          else "N/A"
        in
        let b = run ~config:cfg ~nprocs:1 ~version:Experiment.Base w in
        let c = run ~config:cfg ~nprocs:1 ~version:Experiment.Clustered w in
        let up =
          Table.fmt_float ~decimals:1
            (reduction_pct (Experiment.exec_cycles b) (Experiment.exec_cycles c))
        in
        let pmp, pup =
          match
            List.assoc_opt name
              (List.map (fun (n, a, b) -> (n, (a, b))) table3_paper)
          with
          | Some (a, b) -> (a, b)
          | None -> ("-", "-")
        in
        [ name; mp; up; pmp; pup ])
      (Registry.applications ())
  in
  "Table 3: % execution time reduced on the Exemplar-like system\n\
   (paper: 9-38% for 6 of 7 applications; multiprocessor Ocean degrades)\n\n"
  ^ Table.render
      ~header:[ "app"; "MP %"; "UP %"; "paper MP"; "paper UP" ]
      rows

(* ------------------------------------------------------------------ *)

let mshr_curves ~read () =
  let lu = List.find (fun w -> w.Workload.name = "LU") (Registry.applications ()) in
  let ocean =
    List.find (fun w -> w.Workload.name = "Ocean") (Registry.applications ())
  in
  prewarm
    (List.concat_map
       (fun w ->
         base_and_clustered ~config:Config.base ~nprocs:w.Workload.mp_procs w)
       [ lu; ocean ]);
  let curve w version =
    let o =
      run ~config:Config.base ~nprocs:w.Workload.mp_procs ~version w
    in
    let h =
      if read then o.Experiment.result.Machine.read_mshr_hist
      else o.Experiment.result.Machine.total_mshr_hist
    in
    Array.init 11 (fun n -> Stats.Histogram.fraction_at_least h n)
  in
  let series =
    [
      ("Ocean", curve ocean Experiment.Base);
      ("Ocean(clust)", curve ocean Experiment.Clustered);
      ("LU", curve lu Experiment.Base);
      ("LU(clust)", curve lu Experiment.Clustered);
    ]
  in
  let rows =
    List.map
      (fun (name, ys) ->
        name
        :: List.init 11 (fun n -> Table.fmt_float ~decimals:3 ys.(n)))
      series
  in
  let table =
    Table.render
      ~header:("series" :: List.init 11 (fun n -> Printf.sprintf ">=%d" n))
      rows
  in
  let plot =
    Plot.series
      ~labels:(List.map fst series)
      (List.map snd series)
  in
  table ^ "\n\n" ^ plot

let fig4a () =
  "Figure 4(a): read miss parallelism — fraction of time at least N L2\n\
   MSHRs hold read misses (multiprocessor runs).\n\
   (paper: clustering turns LU from <=1 outstanding read miss into up to 9;\n\
   Ocean changes only slightly since its base already clusters)\n\n"
  ^ mshr_curves ~read:true ()

let fig4b () =
  "Figure 4(b): contention — fraction of time at least N L2 MSHRs are\n\
   occupied by reads or writes (multiprocessor runs).\n\
   (paper: writes add contention in Ocean but not LU; clustering leaves\n\
   write contention unchanged)\n\n"
  ^ mshr_curves ~read:false ()

(* ------------------------------------------------------------------ *)

let ghz () =
  let cfg = Config.ghz Config.base in
  prewarm
    (List.concat_map
       (fun w ->
         base_and_clustered ~config:cfg ~nprocs:1 w
         @
         if w.Workload.mp_procs > 1 then
           base_and_clustered ~config:cfg ~nprocs:w.Workload.mp_procs w
         else [])
       (Registry.applications ()));
  let line w =
    let red nprocs =
      let b = run ~config:cfg ~nprocs ~version:Experiment.Base w in
      let c = run ~config:cfg ~nprocs ~version:Experiment.Clustered w in
      reduction_pct (Experiment.exec_cycles b) (Experiment.exec_cycles c)
    in
    let mp =
      if w.Workload.mp_procs > 1 then
        Table.fmt_float ~decimals:1 (red w.Workload.mp_procs)
      else "N/A"
    in
    [ w.Workload.name; mp; Table.fmt_float ~decimals:1 (red 1) ]
  in
  let rows = List.map line (Registry.applications ()) in
  "Section 5.2: 1 GHz processors, memory system unchanged in ns\n\
   (paper: 5-36% multiprocessor reductions averaging 21%; 12-50%\n\
   uniprocessor averaging 33%; memory parallelism matters more)\n\n"
  ^ Table.render ~header:[ "app"; "MP %"; "UP %" ] rows

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's artifacts                              *)
(* ------------------------------------------------------------------ *)

(* clustering x software prefetching (paper section 6 / reference [8]) *)
let prefetch () =
  prewarm
    (List.concat_map
       (fun w ->
         List.map
           (fun version -> spec ~config:Config.base ~nprocs:1 ~version w)
           [
             Experiment.Base;
             Experiment.Prefetched;
             Experiment.Clustered;
             Experiment.Clustered_prefetched;
           ])
       (Registry.applications ()));
  let rows =
    List.concat_map
      (fun w ->
        let go version = run ~config:Config.base ~nprocs:1 ~version w in
        let b = go Experiment.Base in
        let bc = Experiment.exec_cycles b in
        let line label (o : Experiment.outcome) =
          let r = o.Experiment.result in
          [
            (if String.equal label "base" then w.Workload.name else "");
            label;
            Table.fmt_float ~decimals:1 (reduction_pct bc (Experiment.exec_cycles o));
            string_of_int r.Machine.prefetches;
            string_of_int r.Machine.prefetch_misses;
            string_of_int r.Machine.late_prefetches;
            Table.fmt_float ~decimals:1
              r.Machine.breakdown.Breakdown.data_stall;
          ]
        in
        [
          line "base" b;
          line "prefetch" (go Experiment.Prefetched);
          line "cluster" (go Experiment.Clustered);
          line "cluster+pf" (go Experiment.Clustered_prefetched);
        ])
      (Registry.applications ())
  in
  "Extension: software prefetching vs and with clustering (uniprocessor).
   The paper (section 1/6, ref [8]) argues prefetching on ILP processors
   suffers late prefetches and MSHR contention, and that clustering
   composes with it. 'late' counts demand loads that caught a prefetch
   still in flight.

"
  ^ Table.render
      ~header:
        [ "app"; "version"; "reduction %"; "pf issued"; "pf misses"; "late"; "data stall" ]
      rows

(* which driver stage buys what (DESIGN.md ablation) *)
let ablation () =
  let open Memclust_cluster in
  let without name = List.filter (fun n -> not (String.equal n name)) Driver.pass_names in
  let default = Driver.default_options in
  (* each variant is a pass list; only "balanced sched." changes an option *)
  let stages =
    [
      ("full", default, Driver.pass_names);
      ("no scalar-replace", default, without "scalar-replace");
      ("no scheduling", default, without "schedule");
      ("balanced sched.", { default with scheduler = Driver.Balanced }, Driver.pass_names);
      ("no unroll-and-jam", default, without "unroll-jam");
      ("no window stage", default, without "window-unroll");
      ("analysis only", default, [ "analyze" ]);
    ]
  in
  let apps = [ "Em3d"; "LU"; "Mp3d"; "Ocean" ] in
  let simulate w prog =
    let cfg = Config.with_l2 w.Workload.l2_bytes Config.base in
    Experiment.simulate_cached w cfg ~nprocs:1 prog
  in
  let workloads = List.filter_map Registry.by_name apps in
  (* fan the independent (workload x pipeline-variant) points — plus the
     untransformed baselines — out over the domain pool. Crash-contained:
     a variant that dies shows a degraded cell, a baseline that dies
     degrades only that workload's rows. *)
  let pool = Domain_pool.default () in
  let bases =
    List.map2
      (fun w r -> (w.Workload.name, r))
      workloads
      (Domain_pool.map_result
         ~task_name:(fun w -> "ablation-base " ^ w.Workload.name)
         pool
         (fun w ->
           simulate w (Memclust_ir.Program.renumber w.Workload.program))
         workloads)
  in
  let variant_points =
    List.concat_map
      (fun w -> List.map (fun so -> (w, so)) stages)
      workloads
  in
  let variants =
    List.map2
      (fun (w, (label, _, _)) r -> (w.Workload.name, label, r))
      variant_points
      (Domain_pool.map_result
         ~task_name:(fun (w, (label, _, _)) ->
           Printf.sprintf "ablation %s %s" w.Workload.name label)
         pool
         (fun (w, (label, options, only)) ->
           Printf.eprintf "[run] ablation %s %s...\n%!" w.Workload.name label;
           let p, _ =
             Driver.run ~options ~init:w.Workload.init ~only w.Workload.program
           in
           simulate w p)
         variant_points)
  in
  let rows =
    List.concat_map
      (fun w ->
        let name = w.Workload.name in
        let base = List.assoc name bases in
        List.mapi
          (fun i (label, _, _) ->
            let r =
              List.find_map
                (fun (n, l, r) ->
                  if String.equal n name && String.equal l label then Some r
                  else None)
                variants
              |> Option.get
            in
            let cell =
              match (base, r) with
              | Ok base, Ok r ->
                  Table.fmt_float ~decimals:1
                    (reduction_pct base.Machine.cycles r.Machine.cycles)
              | Error e, _ | _, Error e ->
                  "degraded: " ^ Memclust_util.Error.kind e
            in
            [ (if i = 0 then name else ""); label; cell ])
          stages)
      workloads
  in
  "Extension: per-stage ablation of the clustering driver (uniprocessor,
   % execution time reduced vs untransformed base).

"
  ^ Table.render ~header:[ "app"; "pipeline"; "reduction %" ] rows

(* how much miss parallelism the hardware must offer before clustering
   pays off: sweep the MSHR count, re-deriving the transformation for
   each lp (the framework picks a degree matched to the resources) *)
let mshr_sweep () =
  let points = [ 1; 2; 4; 6; 8; 10; 12; 16 ] in
  let apps =
    [ Registry.latbench ();
      List.find (fun w -> w.Workload.name = "LU") (Registry.applications ());
    ]
  in
  let sweep_config mshrs = Config.with_mshrs mshrs Config.base in
  prewarm
    (List.concat_map
       (fun w ->
         List.concat_map
           (fun mshrs ->
             base_and_clustered ~config:(sweep_config mshrs) ~nprocs:1 w)
           points)
       apps);
  let rows =
    List.concat_map
      (fun w ->
        List.mapi
          (fun i mshrs ->
            let config = sweep_config mshrs in
            let b = run ~config ~nprocs:1 ~version:Experiment.Base w in
            let c = run ~config ~nprocs:1 ~version:Experiment.Clustered w in
            let factor =
              match c.Experiment.cluster_report with
              | Some r ->
                  List.fold_left
                    (fun acc n ->
                      List.fold_left
                        (fun acc a ->
                          match a with
                          | Memclust_cluster.Driver.Unroll_jam { factor; _ } ->
                              max acc factor
                          | _ -> acc)
                        acc n.Memclust_cluster.Driver.actions)
                    0 r.Memclust_cluster.Driver.nests
              | None -> 0
            in
            [
              (if i = 0 then w.Workload.name else "");
              string_of_int mshrs;
              string_of_int factor;
              Table.fmt_float
                (float_of_int (Experiment.exec_cycles b)
                /. float_of_int (Experiment.exec_cycles c))
              ^ "x";
            ])
          points)
      apps
  in
  "Extension: clustering speedup vs available MSHRs (uniprocessor). The
   driver re-derives the unroll degree for each lp; with one MSHR there
   is nothing to overlap, and past the bandwidth limit extra MSHRs stop
   helping (the paper's section 5.1 observation).

"
  ^ Table.render ~header:[ "app"; "MSHRs"; "chosen degree"; "speedup" ] rows

(* ------------------------------------------------------------------ *)

let paper_ids =
  [ "table1"; "table2"; "latbench"; "fig3a"; "fig3b"; "table3"; "fig4a"; "fig4b"; "ghz" ]

let extension_ids = [ "prefetch"; "ablation"; "mshrsweep" ]

let all_ids = paper_ids @ extension_ids

let by_id = function
  | "table1" -> Some table1
  | "table2" -> Some table2
  | "latbench" -> Some latbench
  | "fig3a" -> Some fig3a
  | "fig3b" -> Some fig3b
  | "table3" -> Some table3
  | "fig4a" -> Some fig4a
  | "fig4b" -> Some fig4b
  | "ghz" -> Some ghz
  | "prefetch" -> Some prefetch
  | "ablation" -> Some ablation
  | "mshrsweep" -> Some mshr_sweep
  | _ -> None

(* one wedged or crashing artifact degrades to an error report instead of
   taking down the sibling artifacts of the same invocation *)
let run_safe id =
  match by_id id with
  | None ->
      Error
        (Memclust_util.Error.Config_invalid
           { config = id; reason = "unknown experiment id" })
  | Some f -> Memclust_util.Error.guard ~task:("experiment " ^ id) f

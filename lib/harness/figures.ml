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

let base_and_clustered ~config ~nprocs w =
  [
    spec ~config ~nprocs ~version:Experiment.Base w;
    spec ~config ~nprocs ~version:Experiment.Clustered w;
  ]

(* a point's base and clustered outcomes, from an [Experiment.execute_all]
   lookup *)
let pair get ~config ~nprocs w =
  let b = get (spec ~config ~nprocs ~version:Experiment.Base w) in
  (b, get (spec ~config ~nprocs ~version:Experiment.Clustered w))

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
  let get = Experiment.execute_all (base_and_clustered ~config ~nprocs:1 w) in
  let b, c = pair get ~config ~nprocs:1 w in
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
  let nprocs w = if mp then w.Workload.mp_procs else 1 in
  let get =
    Experiment.execute_all
      (List.concat_map
         (fun w -> base_and_clustered ~config:Config.base ~nprocs:(nprocs w) w)
         apps)
  in
  let rows =
    List.concat_map
      (fun w ->
        let b, c = pair get ~config:Config.base ~nprocs:(nprocs w) w in
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

(* each application's "MP %" and "UP %" cells, execution time reduced on
   [config]: "N/A" for MP unless [mp_ok] *)
let reductions ~config ~mp_ok =
  let apps = Registry.applications () in
  let procs w = 1 :: (if mp_ok w then [ w.Workload.mp_procs ] else []) in
  let get =
    Experiment.execute_all
      (List.concat_map
         (fun w -> List.concat_map (fun nprocs -> base_and_clustered ~config ~nprocs w) (procs w))
         apps)
  in
  let red nprocs w =
    let b, c = pair get ~config ~nprocs w in
    Table.fmt_float ~decimals:1
      (reduction_pct (Experiment.exec_cycles b) (Experiment.exec_cycles c))
  in
  List.map (fun w -> (w, (if mp_ok w then red w.Workload.mp_procs w else "N/A"), red 1 w)) apps

let table3 () =
  let rows =
    List.map
      (fun (w, mp, up) ->
        let name = w.Workload.name in
        let pmp, pup =
          match
            List.assoc_opt name
              (List.map (fun (n, a, b) -> (n, (a, b))) table3_paper)
          with
          | Some (a, b) -> (a, b)
          | None -> ("-", "-")
        in
        [ name; mp; up; pmp; pup ])
      (reductions ~config:Config.exemplar_like ~mp_ok:table3_mp_ok)
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
  let get =
    Experiment.execute_all
      (List.concat_map
         (fun w ->
           base_and_clustered ~config:Config.base ~nprocs:w.Workload.mp_procs w)
         [ lu; ocean ])
  in
  let curve w version =
    let o = get (spec ~config:Config.base ~nprocs:w.Workload.mp_procs ~version w) in
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
  let rows =
    List.map
      (fun ((w : Workload.t), mp, up) -> [ w.Workload.name; mp; up ])
      (reductions ~config:(Config.ghz Config.base) ~mp_ok:(fun w -> w.Workload.mp_procs > 1))
  in
  "Section 5.2: 1 GHz processors, memory system unchanged in ns\n\
   (paper: 5-36% multiprocessor reductions averaging 21%; 12-50%\n\
   uniprocessor averaging 33%; memory parallelism matters more)\n\n"
  ^ Table.render ~header:[ "app"; "MP %"; "UP %" ] rows

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's artifacts                              *)
(* ------------------------------------------------------------------ *)

(* clustering x software prefetching (paper section 6 / reference [8]) *)
let prefetch () =
  let get =
    Experiment.execute_all
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
         (Registry.applications ()))
  in
  let rows =
    List.concat_map
      (fun w ->
        let go version = get (spec ~config:Config.base ~nprocs:1 ~version w) in
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

(* which driver stage buys what (DESIGN.md ablation): each variant is a
   version, so its clustering, lowering and simulation go through the
   harness memos like every other point, and "full" is the Clustered
   point of Figure 3(b) *)
let ablation () =
  let open Memclust_cluster in
  let without name = List.filter (fun n -> not (String.equal n name)) Driver.pass_names in
  let ablated ?(scheduler = Driver.Pack_misses) passes = Experiment.Ablated { passes; scheduler } in
  let stages =
    [
      ("full", Experiment.Clustered);
      ("no scalar-replace", ablated (without "scalar-replace"));
      ("no scheduling", ablated (without "schedule"));
      ("balanced sched.", ablated ~scheduler:Driver.Balanced Driver.pass_names);
      ("no unroll-and-jam", ablated (without "unroll-jam"));
      ("no window stage", ablated (without "window-unroll"));
      ("analysis only", ablated [ "analyze" ]);
    ]
  in
  let workloads = List.filter_map Registry.by_name [ "Em3d"; "LU"; "Mp3d"; "Ocean" ] in
  let point version w = spec ~config:Config.base ~nprocs:1 ~version w in
  let get =
    Experiment.execute_all
      (List.concat_map
         (fun w -> List.map (fun v -> point v w) (Experiment.Base :: List.map snd stages))
         workloads)
  in
  (* crash-contained: a variant that dies shows a degraded cell, a
     baseline that dies degrades only that workload's rows *)
  let cell w version =
    match
      let base = get (point Experiment.Base w) in
      reduction_pct (Experiment.exec_cycles base) (Experiment.exec_cycles (get (point version w)))
    with
    | r -> Table.fmt_float ~decimals:1 r
    | exception Error.Error e -> "degraded: " ^ Error.kind e
  in
  let rows =
    List.concat_map
      (fun w ->
        List.mapi
          (fun i (label, version) ->
            [ (if i = 0 then w.Workload.name else ""); label; cell w version ])
          stages)
      workloads
  in
  "Extension: per-stage ablation of the clustering driver (uniprocessor,
   % execution time reduced vs untransformed base).

"
  ^ Table.render ~header:[ "app"; "pipeline"; "reduction %" ] rows

type sweep_row = {
  mshrs : int;
  line : int;
  base : Experiment.outcome;
  clustered : Experiment.outcome;
}

let sweep ~mshrs ~lines points =
  let config m l = Config.base |> Config.with_mshrs m |> Config.with_line l in
  let grid = List.concat_map (fun m -> List.map (fun l -> (m, l)) lines) mshrs in
  let get =
    Experiment.execute_all
      (List.concat_map
         (fun (w, nprocs) ->
           List.concat_map
             (fun (m, l) -> base_and_clustered ~config:(config m l) ~nprocs w)
             grid)
         points)
  in
  List.map
    (fun (w, nprocs) ->
      ( w,
        List.map
          (fun (m, l) ->
            let base, clustered = pair get ~config:(config m l) ~nprocs w in
            { mshrs = m; line = l; base; clustered })
          grid ))
    points

(* how much miss parallelism the hardware must offer before clustering
   pays off: sweep the MSHR count, re-deriving the transformation for
   each lp (the framework picks a degree matched to the resources) *)
let mshr_sweep () =
  let open Memclust_cluster in
  let degree (o : Experiment.outcome) =
    match o.Experiment.cluster_report with
    | Some r ->
        List.fold_left
          (fun acc -> function Driver.Unroll_jam { factor; _ } -> max acc factor | _ -> acc)
          0
          (List.concat_map (fun n -> n.Driver.actions) r.Driver.nests)
    | None -> 0
  in
  let rows =
    List.concat_map
      (fun ((w : Workload.t), rows) ->
        List.mapi
          (fun i r ->
            [
              (if i = 0 then w.Workload.name else "");
              string_of_int r.mshrs;
              string_of_int (degree r.clustered);
              Table.fmt_float
                (float_of_int (Experiment.exec_cycles r.base)
                /. float_of_int (Experiment.exec_cycles r.clustered))
              ^ "x";
            ])
          rows)
      (sweep ~mshrs:[ 1; 2; 4; 6; 8; 10; 12; 16 ] ~lines:[ Config.line Config.base ]
         (List.filter_map (fun n -> Option.map (fun w -> (w, 1)) (Registry.by_name n))
            [ "Latbench"; "LU" ]))
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

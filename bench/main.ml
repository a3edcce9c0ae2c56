(* Benchmark harness: reproduction of every table and figure in the
   paper's evaluation (Table 1, Table 2, Section 5.1 Latbench, Figure
   3(a)/(b), Table 3, Figure 4(a)/(b), Section 5.2 1 GHz) and the
   extensions — each regenerated from scratch by the experiment harness
   and printed next to the paper's numbers. Pass experiment ids as
   arguments to run a subset; with none, every id runs.
   MEMCLUST_SIM_MODE selects the simulator core, cycle or event (default
   event); both give identical numbers. *)

open Memclust_sim
open Memclust_harness

let run_experiments ids =
  (* every id is looked up before any runs, so a typo fails the command *)
  let figures =
    List.map
      (fun id ->
        match Figures.by_id id with
        | Some f -> (id, f)
        | None ->
            Printf.eprintf "unknown experiment id %s (valid: %s)\n" id
              (String.concat ", " Figures.all_ids);
            exit 1)
      ids
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (id, f) -> Printf.printf "==== %s ====\n%s\n\n%!" id (f ())) figures;
  Printf.printf
    "==== sweep wall-clock: %.1f s (%d experiments, sim mode %s, %d pool \
     domains) ====\n\
     %!"
    (Unix.gettimeofday () -. t0)
    (List.length ids)
    (Machine.mode_to_string (Machine.default_mode ()))
    (Memclust_util.Domain_pool.size (Memclust_util.Domain_pool.default ()))

let () =
  (* fail fast if a preset was edited into an inconsistent state *)
  List.iter Config.validate_exn
    [ Config.base; Config.exemplar_like; Config.three_level ];
  run_experiments
    (match List.tl (Array.to_list Sys.argv) with [] -> Figures.all_ids | ids -> ids)

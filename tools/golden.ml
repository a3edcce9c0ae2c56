(* Print golden cycle counts for Registry.small on both default configs,
   base and clustered variants. Fails unless cycle and event mode give
   the same full result (every counter, breakdown and histogram). *)
open Memclust_ir
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness

let () =
  List.iter
    (fun (w : Workload.t) ->
      let nprocs = max 1 w.Workload.mp_procs in
      List.iter
        (fun (cname, cfg) ->
          List.iter
            (fun (vname, program) ->
              let data = Data.create program in
              w.Workload.init data;
              let lowered = Lower.build ~nprocs program data in
              let home = Data.home_of_addr data ~nprocs in
              let cy = Machine.run cfg ~mode:Machine.Cycle ~home lowered in
              let ev = Machine.run cfg ~mode:Machine.Event ~home lowered in
              if cy <> ev then
                failwith
                  (Printf.sprintf "%s/%s/%s: cycle and event results differ"
                     w.Workload.name cname vname);
              Printf.printf "    (%S, %S, %S, %d);\n%!" w.Workload.name cname
                vname cy.Machine.cycles)
            [
              ("base", Program.renumber w.Workload.program);
              ("clustered", fst (Experiment.transform cfg w));
            ])
        [ ("base-500MHz", Config.base); ("exemplar-like", Config.exemplar_like) ])
    (Registry.small ())

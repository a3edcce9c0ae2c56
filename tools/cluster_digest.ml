(* Print, for every full-size registry workload on the base machine and
   at lp 1, 2, 4, 8 and 16, the digest of the clustered program
   (Marshal) and of its report text (Driver.pp_report). Clustered output
   depends on what was clustered earlier in the process (rename stamps
   are process-wide), so the workloads run in a fixed order in one fresh
   process and the output is compared only with another such run:

     dune exec tools/cluster_digest.exe | diff tools/cluster_digest.expected -
*)
open Memclust_cluster
open Memclust_sim
open Memclust_workloads
open Memclust_harness

let digest s = Digest.to_hex (Digest.string s)

let configs =
  ("base", Config.base)
  :: List.map
       (fun lp -> (Printf.sprintf "lp%d" lp, Config.with_mshrs lp Config.base))
       [ 1; 2; 4; 8; 16 ]

let () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (cname, cfg) ->
          let machine =
            { (Experiment.machine_of_config (Config.with_l2 w.Workload.l2_bytes cfg)) with
              Machine_model.max_procs = max 1 w.Workload.mp_procs
            }
          in
          let options = { Driver.default_options with machine } in
          let program, report =
            Driver.run ~options ~init:w.Workload.init w.Workload.program
          in
          Printf.printf "%-10s %-4s program %s report %s\n%!" w.Workload.name cname
            (digest (Marshal.to_string program []))
            (digest (Format.asprintf "%a" Driver.pp_report report)))
        configs)
    (Registry.latbench () :: Registry.applications ())

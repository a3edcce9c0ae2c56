(* Print, for every full-size registry workload on the base machine and
   at lp 1, 2, 4, 8 and 16, the content digest of the clustered program
   (Analysis_cache.content_digest, Marshal without sharing, the digest
   the harness keys lowering on) and the digest of its report text
   (Driver.pp_report). A digest with sharing would pin the physical
   sharing the compiler's optimizations happen to produce, not the
   program. Clustering is a function of the program, its store and the
   machine (rename stamps are per pipeline run), so each line depends
   only on its point:

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
            (Memclust_util.Analysis_cache.content_digest program)
            (digest (Format.asprintf "%a" Driver.pp_report report)))
        configs)
    (Registry.latbench () :: Registry.applications ())

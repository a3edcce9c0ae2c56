(* Print the digest of the full simulation result (every counter,
   breakdown and histogram, marshalled without sharing) in cycle and
   event mode for

   - seeded random traces: 1-8 cores, up to 4 barrier-separated segments
     of up to 200 instructions each, with dependences onto every kind of
     instruction (stores, prefetches and barriers included) and some
     beyond the window, on four machines: the base system, one MSHR, a
     seeded fault plan and the Exemplar-like preset. Digests are printed
     per batch of traces;
   - the Registry.small golden points (both presets, base and clustered),
     each followed by a digest of the traces it lowered: per processor,
     the length and then every instruction's kind code, aux, dep1, dep2
     and ref_id. That digest reads the fields through the [Trace]
     accessors, so it does not depend on how a trace is stored, and it
     covers [ref_id], which the simulator never reads.

   Cycle and event mode run the same core, so comparing them cannot
   catch a change to the core itself; comparing against the committed
   output of an earlier build does:

     dune exec tools/sim_digest.exe | diff tools/sim_digest.expected -

   The traces come from [Random.State], so the output is tied to the
   OCaml runtime's generator as well as to the simulator. *)
open Memclust_ir
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness

let digest_results rs =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun (r : Machine.result) -> Marshal.to_string r [ Marshal.No_sharing ])
             rs)))

(* ---------------------------- random traces ---------------------------- *)

let specs = 400
let batch = 50

(* one core's trace: [barriers + 1] segments, barrier [b] in front of
   segment [b] *)
let gen_core rand ~barriers =
  let int n = Random.State.int rand n in
  let t = Trace.create () in
  let dep i =
    let d =
      match int 6 with
      | 0 | 1 -> -1
      | 2 | 3 | 4 -> i - 1 - int 8
      | _ -> i - 9 - int 92
    in
    if d < 0 then -1 else d
  in
  let addr () = 0x40000 + (int 256 * 64) + (int 8 * 8) in
  let push kind aux =
    let i = Trace.length t in
    ignore (Trace.push t ~kind ~aux ~dep1:(dep i) ~dep2:(dep i) ~ref_:0)
  in
  for b = 0 to barriers do
    if b > 0 then push Trace.Barrier_op b;
    for _ = 1 to int 201 do
      match int 17 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> push Trace.Load (addr ())
      | 6 | 7 | 8 | 9 -> push Trace.Store (addr ())
      | 10 | 11 | 12 -> push Trace.Int_op 1
      | 13 -> push Trace.Fp_op (1 + int 6)
      | 14 -> push Trace.Fp_op (if int 4 = 0 then 40 + int 60 else 1 + int 6)
      | 15 -> push Trace.Branch 1
      | _ -> push Trace.Prefetch_op (addr ())
    done
  done;
  t

let gen_spec seed =
  let rand = Random.State.make [| seed |] in
  let nprocs = 1 + Random.State.int rand 8 in
  let barriers = Random.State.int rand 4 in
  {
    Lower.traces = Array.init nprocs (fun _ -> gen_core rand ~barriers);
    barriers;
  }

let machines seed =
  [
    ("base", Config.base);
    ("mshrs1", Config.with_mshrs 1 Config.base);
    ("faults", Config.with_faults (Faults.scaled ~seed 0.3) Config.base);
    ("exemplar", Config.exemplar_like);
  ]

let random_traces () =
  for b = 0 to (specs / batch) - 1 do
    let lowered =
      List.init batch (fun k ->
          let seed = (b * batch) + k in
          (seed, gen_spec seed))
    in
    List.iter
      (fun (mname, _) ->
        let run mode =
          digest_results
            (List.map
               (fun (seed, (l : Lower.t)) ->
                 let cfg = List.assoc mname (machines seed) in
                 let nprocs = Array.length l.Lower.traces in
                 Machine.run cfg ~mode ~home:(fun a -> (a lsr 6) mod nprocs) l)
               lowered)
        in
        Printf.printf "random %4d-%4d %-8s cycle %s event %s\n%!" (b * batch)
          (((b + 1) * batch) - 1)
          mname (run Machine.Cycle) (run Machine.Event))
      (machines 0)
  done

(* ---------------------------- golden points ---------------------------- *)

let digest_traces (l : Lower.t) =
  let b = Buffer.create 4096 in
  let add v = Buffer.add_int64_le b (Int64.of_int v) in
  Array.iter
    (fun t ->
      let n = Trace.length t in
      add n;
      for i = 0 to n - 1 do
        add (Trace.kind_code (Trace.kind t i));
        add (Trace.aux t i);
        add (Trace.dep1 t i);
        add (Trace.dep2 t i);
        add (Trace.ref_id t i)
      done)
    l.Lower.traces;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden () =
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
              Printf.printf "golden %-10s %-13s %-9s %6d cycle %s event %s\n%!"
                w.Workload.name cname vname cy.Machine.cycles
                (digest_results [ cy ]) (digest_results [ ev ]);
              Printf.printf "trace  %-10s %-13s %-9s %8d instrs %s\n%!"
                w.Workload.name cname vname
                (Array.fold_left
                   (fun acc t -> acc + Trace.length t)
                   0 lowered.Lower.traces)
                (digest_traces lowered))
            [
              ("base", Program.renumber w.Workload.program);
              ("clustered", fst (Experiment.transform cfg w));
            ])
        [ ("base-500MHz", Config.base); ("exemplar-like", Config.exemplar_like) ])
    (Registry.small ())

let () =
  random_traces ();
  golden ()

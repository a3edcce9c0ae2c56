(* Outputs pinned at the registry sizes. A host-only change must leave
   every one of them unchanged; a point whose output differs counts as
   failed. Keys: "<program>@p<nprocs>.base_cycles" (sim-mp) and
   "<program>@lp<mshrs>.base_cycles" (lp-sweep), simulated cycles of the
   base version; "<program>.stmts" and "<program>.static_refs" (compile),
   the size of the clustered program. Print them with [main.exe pins]
   when a change is meant to alter simulated or transformed results. *)

let pins =
  [
    ("Em3d@p16.base_cycles", 292793);
    ("FFT@p16.base_cycles", 42456);
    ("LU@p8.base_cycles", 510414);
    ("Ocean@p8.base_cycles", 94798);
    ("Latbench@lp1.base_cycles", 2786389);
    ("Latbench@lp2.base_cycles", 2707609);
    ("Latbench@lp4.base_cycles", 2707609);
    ("Latbench@lp8.base_cycles", 2707609);
    ("Latbench@lp16.base_cycles", 2707609);
    ("MST@lp1.base_cycles", 3052615);
    ("MST@lp2.base_cycles", 2380401);
    ("MST@lp4.base_cycles", 2373668);
    ("MST@lp8.base_cycles", 2373668);
    ("MST@lp16.base_cycles", 2373668);
    ("Latbench.stmts", 22);
    ("Latbench.static_refs", 20);
    ("Em3d.stmts", 52);
    ("Em3d.static_refs", 40);
    ("Erlebacher.stmts", 43);
    ("Erlebacher.static_refs", 30);
    ("FFT.stmts", 3660);
    ("FFT.static_refs", 1470);
    ("LU.stmts", 204);
    ("LU.static_refs", 187);
    ("Mp3d.stmts", 178);
    ("Mp3d.static_refs", 112);
    ("MST.stmts", 90);
    ("MST.static_refs", 68);
    ("Ocean.stmts", 65);
    ("Ocean.static_refs", 48);
  ]

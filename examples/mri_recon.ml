(* MRI reconstruction front end: the F^H d computation.

   Reproduces the application behind the paper's Figure 6(b): computing
   the image-space vector F^H d from non-Cartesian k-space samples, the
   dominant kernel of the iterative reconstruction in Stone et al.
   This example tunes the kernel, validates the winner against the CPU
   reference, and reports the achieved arithmetic throughput.

   Run with:  dune exec examples/mri_recon.exe *)

let () =
  let nsamples = 32 and nvox = 6720 in
  let app = Apps.Mri_fhd.app and size = { Apps.Mri_fhd.nsamples; nvox; max_blocks = 3 } in
  Printf.printf "MRI F^H d: %d voxels x %d k-space samples\n\n" nvox nsamples;

  (* Tune with the Pareto methodology. *)
  let cands = Apps.App.candidates app size in
  let best, selected = Tuner.Search.tune ~app_name:"mri" cands in
  Printf.printf "pruned search measured %d of %d configurations; chose %s (%.3f ms)\n"
    (List.length selected)
    (List.length (List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands))
    best.cand.desc (best.time_s *. 1000.0);

  (* Metric clusters: the work-per-thread axis leaves both metrics
     (nearly) unchanged — the paper's clusters of seven.  At this
     example's tiny sample count the per-voxel setup overhead is
     visible; at the benchmark's scale the cluster spread is ~0.3%. *)
  let m_of d =
    List.find_map
      (fun (c : Tuner.Candidate.t) ->
        if c.desc = d then Some (Tuner.Metrics.of_candidate c) else None)
      cands
  in
  (match (m_of "tpb128/u4/w1", m_of "tpb128/u4/w7") with
  | Some a, Some b ->
    Printf.printf "\ncluster check (tpb128/u4, w1 vs w7): eff %.4e vs %.4e, util %.1f vs %.1f\n"
      a.efficiency b.efficiency a.utilization b.utilization
  | _ -> ());

  (* Validate the winner end to end. *)
  let cfg =
    Option.get
      (Tuner.Space.find ~describe:Apps.Mri_fhd.describe Apps.Mri_fhd.space best.cand.desc)
  in
  Printf.printf "\nfunctional validation of the winner: %b\n" (Apps.App.validate app size cfg);

  (* Throughput: each (voxel, sample) pair costs ~14 flops + sincos. *)
  let interactions = float_of_int (nvox * nsamples) in
  Printf.printf "simulated throughput: %.1f M interactions/s (%.1f 'GFLOPS' at 14 flops each)\n"
    (interactions /. best.time_s /. 1e6)
    (interactions *. 14.0 /. best.time_s /. 1e9)

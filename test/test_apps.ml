(* Tests for the four applications: configuration spaces, kernel
   generation, functional correctness against the CPU references, and
   workload generators. *)

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let workload_tests =
  [
    t "matrix generation is deterministic and in range" (fun () ->
        let a = Apps.Workload.matrix ~seed:3 16 in
        let b = Apps.Workload.matrix ~seed:3 16 in
        check_b "deterministic" true (a = b);
        check_b "range" true (Array.for_all (fun x -> x >= -1.0 && x < 1.0) a));
    t "frames shift their content with the motion offset" (fun () ->
        let w = 64 and h = 32 in
        let f0 = Apps.Workload.frame ~seed:1 ~width:w ~height:h ~shift_x:0 ~shift_y:0 () in
        let f1 = Apps.Workload.frame ~seed:1 ~width:w ~height:h ~shift_x:5 ~shift_y:0 () in
        (* away from borders, f1(x, y) = f0(x+5, y) *)
        let ok = ref true in
        for y = 0 to h - 1 do
          for x = 0 to w - 6 do
            if f1.((y * w) + x) <> f0.((y * w) + x + 5) then ok := false
          done
        done;
        check_b "pure translation" true !ok);
    t "frame values stay within pixel range" (fun () ->
        let f = Apps.Workload.frame ~seed:2 ~width:32 ~height:32 ~shift_x:0 ~shift_y:0 () in
        check_b "range" true (Array.for_all (fun x -> x >= 0.0 && x <= 255.0) f));
    t "atoms have the documented layout and ranges" (fun () ->
        let a = Apps.Workload.atoms ~seed:4 ~n:10 ~extent:5.0 () in
        check_i "length" 40 (Array.length a);
        for j = 0 to 9 do
          check_b "x" true (a.(4 * j) >= 0.0 && a.(4 * j) < 5.0);
          check_b "q" true (a.((4 * j) + 3) >= -2.0 && a.((4 * j) + 3) < 2.0)
        done);
    t "mri voxel grid is normalized" (fun () ->
        let xs, ys, zs = Apps.Workload.mri_voxels ~n:100 in
        check_b "range" true
          (Array.for_all (fun x -> x >= 0.0 && x < 1.0) xs
          && Array.for_all (fun x -> x >= 0.0 && x < 1.0) ys
          && Array.for_all (fun x -> x >= 0.0 && x < 1.0) zs));
  ]

(* ------------------------------------------------------------------ *)
(* Spaces                                                              *)
(* ------------------------------------------------------------------ *)

let unique_descs describe space =
  let descs = List.map describe (Tuner.Space.configs space) in
  List.length (List.sort_uniq compare descs) = List.length descs

let space_tests =
  [
    t "matmul space has 96 raw configurations" (fun () ->
        check_i "size" 96 (Tuner.Space.cardinality Apps.Matmul.space));
    t "cp space has 40 raw configurations" (fun () ->
        check_i "size" 40 (Tuner.Space.cardinality Apps.Cp.space));
    t "sad space has 648 raw configurations" (fun () ->
        check_i "size" 648 (Tuner.Space.cardinality Apps.Sad.space));
    t "mri space has exactly the paper's 175 configurations" (fun () ->
        check_i "size" 175 (Tuner.Space.cardinality Apps.Mri_fhd.space));
    t "descriptions are unique within each space" (fun () ->
        check_b "matmul" true (unique_descs Apps.Matmul.describe Apps.Matmul.space);
        check_b "cp" true (unique_descs Apps.Cp.describe Apps.Cp.space);
        check_b "sad" true (unique_descs Apps.Sad.describe Apps.Sad.space);
        check_b "mri" true (unique_descs Apps.Mri_fhd.describe Apps.Mri_fhd.space));
    t "every configuration compiles through the verified pipeline" (fun () ->
        (* [compile] runs per-stage verification by default, so this
           also asserts zero violations across three whole spaces. *)
        let compile_all (app : _ Apps.App.t) size =
          List.iter
            (fun c -> ignore (Apps.App.compile app size c))
            (Tuner.Space.configs app.space)
        in
        compile_all Apps.Matmul.app (Apps.Matmul.sizes Quick);
        compile_all Apps.Cp.app { (Apps.Cp.sizes Quick) with natoms = 8 };
        compile_all Apps.Mri_fhd.app { nsamples = 4; nvox = 840; max_blocks = 1 });
  ]

(* ------------------------------------------------------------------ *)
(* Functional correctness vs CPU references                            *)
(* ------------------------------------------------------------------ *)

let correctness_tests =
  [
    ts "matmul: all optimization corners validate" (fun () ->
        List.iter
          (fun (tile, rect, unroll, prefetch, spill) ->
            let cfg = { Apps.Matmul.tile; rect; unroll; prefetch; spill } in
            check_b (Apps.Matmul.describe cfg) true (Apps.Matmul.validate cfg))
          [
            (8, 1, 1, false, false);
            (8, 4, 2, true, false);
            (16, 1, 0, false, true);
            (16, 2, 4, true, true);
            (16, 4, 0, true, false);
            (8, 2, 0, false, true);
          ]);
    ts "cp: coalesced and uncoalesced layouts validate" (fun () ->
        List.iter
          (fun (block_y, tiling, coalesce) ->
            let cfg = { Apps.Cp.block_y; tiling; coalesce } in
            check_b (Apps.Cp.describe cfg) true (Apps.Cp.validate cfg))
          [ (2, 1, true); (4, 2, false); (8, 8, true); (16, 4, false) ]);
    ts "sad: tilings and unrolls validate" (fun () ->
        List.iter
          (fun (tpb, tiling, u_vec, u_py, u_px) ->
            let cfg = { Apps.Sad.tpb; tiling; u_vec; u_py; u_px } in
            check_b (Apps.Sad.describe cfg) true (Apps.Sad.validate cfg))
          [ (32, 1, 1, 1, 1); (64, 2, 2, 4, 2); (96, 4, 4, 2, 4); (128, 4, 2, 1, 2) ]);
    ts "mri: block sizes, unrolls and voxel tilings validate" (fun () ->
        List.iter
          (fun (tpb, unroll, wpt) ->
            let cfg = { Apps.Mri_fhd.tpb; unroll; wpt } in
            check_b (Apps.Mri_fhd.describe cfg) true (Apps.Mri_fhd.validate cfg))
          [ (64, 1, 1); (96, 2, 5); (128, 8, 2); (256, 16, 7) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Candidate characterization                                          *)
(* ------------------------------------------------------------------ *)

let candidate_tests =
  [
    ts "matmul candidates carry sane static data" (fun () ->
        let cands = Apps.App.candidates Apps.Matmul.app (Apps.Matmul.sizes Quick) in
        check_i "count" 96 (List.length cands);
        List.iter
          (fun (c : Tuner.Candidate.t) ->
            check_b "instr > 0" true (c.profile.instr > 0.0);
            check_b "regions >= 1" true (c.profile.regions >= 1.0);
            check_b "regs > 0" true (c.resource.regs_per_thread > 0);
            if c.valid then
              check_b "occupancy consistent" true (c.occupancy.blocks_per_sm >= 1))
          cands);
    ts "cp: rsqrt makes SFU the dominant blocking class" (fun () ->
        let cands =
          Apps.App.candidates Apps.Cp.app { npx = 256; npy = 16; natoms = 16; max_blocks = 8 }
        in
        List.iter
          (fun (c : Tuner.Candidate.t) ->
            check_b "sfu events dominate" true (c.profile.sfu_events > c.profile.mem_bar_events))
          cands);
    ts "mri: voxel-tiling clusters leave metrics (nearly) unchanged" (fun () ->
        let cands =
          Apps.App.candidates Apps.Mri_fhd.app { (Apps.Mri_fhd.sizes Paper) with max_blocks = 1 }
        in
        let m d =
          List.find_map
            (fun (c : Tuner.Candidate.t) ->
              if c.desc = d then Some (Tuner.Metrics.of_candidate c) else None)
            cands
          |> Option.get
        in
        let a = m "tpb128/u4/w1" and b = m "tpb128/u4/w7" in
        check_b "eff within 1%" true
          (Float.abs ((a.efficiency /. b.efficiency) -. 1.0) < 0.01);
        check_b "util within 1%" true
          (Float.abs ((a.utilization /. b.utilization) -. 1.0) < 0.01));
    t "cpu model speedups have the paper's ordering structure" (fun () ->
        (* Using the paper's own problem scales, the model must place
           CP and MRI orders of magnitude above matmul/SAD. *)
        let mm = Apps.Cpu_model.matmul_seconds ~n:4096 /. 1.0 in
        check_b "mm positive" true (mm > 0.0);
        let cp = Apps.Cpu_model.cp_seconds ~interactions:1e9 in
        let mri = Apps.Cpu_model.mri_seconds ~interactions:1e9 in
        let sad = Apps.Cpu_model.sad_seconds ~absdiff_ops:1e9 in
        check_b "cp per-op > sad per-op" true (cp > sad);
        check_b "mri per-op > sad per-op" true (mri > sad));
  ]

let suite =
  [
    ("apps.workload", workload_tests);
    ("apps.spaces", space_tests);
    ("apps.correctness", correctness_tests);
    ("apps.candidates", candidate_tests);
  ]

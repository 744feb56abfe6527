(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus a Bechamel micro-benchmark suite with one
   test per table/figure covering the static pipeline that the paper's
   methodology relies on being fast.

   Usage:
     bench/main.exe                 -- run everything
     bench/main.exe table1 fig5 ... -- run selected experiments
     bench/main.exe bechamel        -- only the Bechamel suite
     bench/main.exe --jobs 4 ...    -- parallel candidate measurement
                                       (same results for any N)

   Shape checks (the qualitative claims the reproduction must satisfy)
   are printed as CHECK lines with pass/fail. *)

let printf = Printf.printf

let section title =
  printf "\n==========================================================\n";
  printf "%s\n" title;
  printf "==========================================================\n"

let check name ok = printf "CHECK %-60s %s\n" name (if ok then "[pass]" else "[FAIL]")

(* Write an exhibit's machine-readable record (one JSON object). *)
let write_json file (v : Util.Json.t) =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Util.Json.to_string v);
      output_char oc '\n');
  printf "wrote %s\n" file

(* Measurement worker domains; set from --jobs before any search is
   forced.  The search results are identical for every value. *)
let jobs = ref (Util.Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Shared search results (computed once, reused by several exhibits)   *)
(* ------------------------------------------------------------------ *)

let matmul_n = (Apps.Matmul.sizes Bench).n

let timed_search name cands =
  let t0 = Unix.gettimeofday () in
  let r = Tuner.Search.run ~jobs:!jobs ~app_name:name cands in
  printf "(%s search: %d configs in %.1fs host time, %d jobs)\n%!" name (r.space_size + r.invalid)
    (Unix.gettimeofday () -. t0)
    !jobs;
  r

(* Each search runs the app registry's candidates at the [Bench] scale
   (matmul at N=256 rather than the paper's 512, so the exhaustive pass
   stays tractable on a host CPU). *)
let registry name = Option.get (Apps.Registry.find name)
let result_of name = lazy (let e = registry name in timed_search e.display (e.candidates Bench))
let matmul_result = result_of "matmul"
let cp_result = result_of "cp"
let sad_result = result_of "sad"
let mri_result = result_of "mri"

let all_results () =
  [ Lazy.force matmul_result; Lazy.force mri_result; Lazy.force cp_result; Lazy.force sad_result ]

(* ------------------------------------------------------------------ *)
(* Table 1: properties of GeForce 8800 memories                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Properties of GeForce 8800 Memories (model parameters)";
  let rows =
    List.map
      (fun (m : Gpu.Arch.memory_row) ->
        [ m.mem_name; m.location; m.size; m.latency; (if m.read_only then "yes" else "no") ])
      Gpu.Arch.memories
  in
  print_string (Tuner.Report.table [ "Memory"; "Location"; "Size"; "Latency"; "RO" ] rows);
  printf "\nSimulator latency/bandwidth parameters:\n";
  let l = Gpu.Arch.g80_latencies in
  printf "  issue %d cy/warp, ALU RAW %d cy, SFU %d cy (issue %d), shared %d cy,\n" l.issue l.alu
    l.sfu l.sfu_issue l.shared;
  printf "  global %d cy + channel (64B tx / %d cy = %.1f B/cy/SM; %.1f GB/s device)\n" l.global
    l.coalesced_tx
    (Gpu.Arch.bytes_per_cycle_per_sm Gpu.Arch.g80)
    Gpu.Arch.g80.Gpu.Arch.global_bandwidth_gbs

(* ------------------------------------------------------------------ *)
(* Table 2: constraints                                                *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: Constraints of GeForce 8800 and CUDA";
  let l = Gpu.Arch.g80.Gpu.Arch.limits in
  print_string
    (Tuner.Report.table
       [ "Resource or Configuration Parameter"; "Limit" ]
       [
         [ "Threads per SM"; Printf.sprintf "%d threads" l.max_threads_per_sm ];
         [ "Thread Blocks per SM"; Printf.sprintf "%d blocks" l.max_blocks_per_sm ];
         [ "32-bit Registers per SM"; Printf.sprintf "%d registers" l.regs_per_sm ];
         [ "Shared Memory per SM"; Printf.sprintf "%d bytes" l.smem_per_sm ];
         [ "Threads per Thread Block"; Printf.sprintf "%d threads" l.max_threads_per_block ];
       ]);
  (* The paper's worked occupancy example (section 2.2). *)
  let o1 = Gpu.Arch.occupancy ~threads_per_block:256 ~regs_per_thread:10 ~smem_per_block:4096 () in
  let o2 = Gpu.Arch.occupancy ~threads_per_block:256 ~regs_per_thread:11 ~smem_per_block:4096 () in
  printf "\nWorked example (sec 2.2): 256 thr/blk, 4KB smem: 10 regs -> %d blocks; 11 regs -> %d blocks\n"
    o1.blocks_per_sm o2.blocks_per_sm;
  check "occupancy cliff: 10 regs -> 3 blocks, 11 regs -> 2 blocks"
    (o1.blocks_per_sm = 3 && o2.blocks_per_sm = 2)

(* ------------------------------------------------------------------ *)
(* Figure 3: matmul performance across the abbreviated space           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section
    (Printf.sprintf
       "Figure 3: Matrix Multiplication performance (N=%d, abbreviated space: no spill)" matmul_n);
  let r = Lazy.force matmul_result in
  let no_spill =
    List.filter
      (fun (m : Tuner.Search.measured) -> List.assoc "spill" m.cand.params = "false")
      r.exhaustive
  in
  let rows =
    List.map
      (fun (m : Tuner.Search.measured) ->
        [
          m.cand.desc;
          string_of_int m.cand.resource.regs_per_thread;
          string_of_int m.cand.occupancy.blocks_per_sm;
          Printf.sprintf "%.0f" m.cand.profile.instr;
          Printf.sprintf "%.4f" (m.time_s *. 1000.0);
        ])
      no_spill
  in
  print_string (Tuner.Report.table [ "Config"; "Regs"; "B_SM"; "Instr"; "Time (ms)" ] rows);
  let time_of pred =
    List.filter_map
      (fun (m : Tuner.Search.measured) -> if pred m.cand then Some m.time_s else None)
      no_spill
  in
  let t8 = time_of (fun (c : Tuner.Candidate.t) -> List.assoc "tile" c.params = "8x8") in
  let t16 = time_of (fun (c : Tuner.Candidate.t) -> List.assoc "tile" c.params = "16x16") in
  let best8 = List.fold_left Float.min Float.infinity t8 in
  let worst16 = List.fold_left Float.max 0.0 t16 in
  check "every 16x16 configuration outperforms every 8x8 configuration" (worst16 < best8);
  let best = r.best.cand in
  printf "optimum: %s (%.4f ms)\n" best.desc (r.best.time_s *. 1000.0);
  check "optimum is 16x16 / 1x4 / complete unroll (paper's result)"
    (List.assoc "tile" best.params = "16x16"
    && List.assoc "rect" best.params = "1x4"
    && List.assoc "unroll" best.params = "complete");
  (* Paper sec 3.2: the optimum runs a single 256-thread block per SM.
     Our register allocator is leaner than ptxas 1.0, so the same
     configuration fits one more block here; the qualitative claim is
     that the winner runs at *low* occupancy despite the barrier. *)
  check "optimum runs at low occupancy (<= 2 blocks/SM; paper: 1)"
    (best.occupancy.blocks_per_sm <= 2)

(* ------------------------------------------------------------------ *)
(* Figure 4: SAD full optimization space                               *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: SAD optimization space (time vs threads per block)";
  let r = Lazy.force sad_result in
  let pts =
    List.map
      (fun (m : Tuner.Search.measured) ->
        (float_of_int m.cand.threads_per_block, m.time_s *. 1000.0))
      r.exhaustive
  in
  print_string
    (Tuner.Report.series_plot ~x_name:"threads per thread block" ~y_name:"time (ms)"
       [ ("configuration", pts) ]);
  (* Per-tpb spread, like the paper's many crossing lines. *)
  let tpbs = List.sort_uniq compare (List.map (fun (x, _) -> int_of_float x) pts) in
  let rows =
    List.map
      (fun tpb ->
        let ts = List.filter_map (fun (x, y) -> if int_of_float x = tpb then Some y else None) pts in
        [
          string_of_int tpb;
          string_of_int (List.length ts);
          Printf.sprintf "%.3f" (List.fold_left Float.min Float.infinity ts);
          Printf.sprintf "%.3f" (List.fold_left Float.max 0.0 ts);
        ])
      tpbs
  in
  print_string (Tuner.Report.table [ "Threads/block"; "Configs"; "Min ms"; "Max ms" ] rows);
  printf "space: %d valid configurations (+%d invalid)\n" r.space_size r.invalid;
  printf "optimum: %s (%.3f ms)\n" r.best.cand.desc (r.best.time_s *. 1000.0);
  (* The paper's point: the response is complex — per-tpb minima are
     not monotonic and the best tpb is in the interior. *)
  let minima =
    List.map
      (fun tpb ->
        List.fold_left Float.min Float.infinity
          (List.filter_map (fun (x, y) -> if int_of_float x = tpb then Some y else None) pts))
      tpbs
  in
  let sorted = List.sort compare minima in
  check "performance responds non-monotonically to threads/block"
    (minima <> sorted && minima <> List.rev sorted)

(* ------------------------------------------------------------------ *)
(* Figure 5: CP metrics versus performance                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: CP metrics versus performance (16x8 blocks, coalesced, tiling sweep)";
  let r = Lazy.force cp_result in
  let sweep =
    List.filter
      (fun (m : Tuner.Search.measured) ->
        List.assoc "block" m.cand.params = "16x8" && List.assoc "coalesced" m.cand.params = "true")
      r.exhaustive
  in
  let sweep =
    List.sort
      (fun (a : Tuner.Search.measured) b ->
        compare
          (int_of_string (List.assoc "tiling" a.cand.params))
          (int_of_string (List.assoc "tiling" b.cand.params)))
      sweep
  in
  let metric (m : Tuner.Search.measured) = Tuner.Metrics.of_candidate m.cand in
  let rows =
    List.map
      (fun (m : Tuner.Search.measured) ->
        let mt = metric m in
        [
          List.assoc "tiling" m.cand.params;
          Printf.sprintf "%.3e" mt.efficiency;
          Printf.sprintf "%.1f" mt.utilization;
          Printf.sprintf "%.4f" (m.time_s *. 1000.0);
        ])
      sweep
  in
  print_string (Tuner.Report.table [ "Tiling"; "Efficiency"; "Utilization"; "Time (ms)" ] rows);
  (* Normalized reciprocal plot, lower is better — the paper's style. *)
  let norm xs =
    let m = List.fold_left Float.max 0.0 xs in
    List.map (fun x -> x /. m) xs
  in
  let tf = List.map (fun (m : Tuner.Search.measured) -> float_of_string (List.assoc "tiling" m.cand.params)) sweep in
  let inv_eff = norm (List.map (fun m -> 1.0 /. (metric m).efficiency) sweep) in
  let inv_util = norm (List.map (fun m -> 1.0 /. (metric m).utilization) sweep) in
  let times = norm (List.map (fun (m : Tuner.Search.measured) -> m.time_s) sweep) in
  print_string
    (Tuner.Report.series_plot ~x_name:"tiling factor" ~y_name:"normalized (lower=better)"
       [
         ("execution time", List.combine tf times);
         ("1/efficiency", List.combine tf inv_eff);
         ("1/utilization", List.combine tf inv_util);
       ]);
  let effs = List.map (fun m -> (metric m).efficiency) sweep in
  let utils = List.map (fun m -> (metric m).utilization) sweep in
  let rec increasing = function a :: b :: tl -> a <= b && increasing (b :: tl) | _ -> true in
  check "efficiency improves monotonically with tiling factor" (increasing effs);
  check "utilization worsens monotonically with tiling factor" (increasing (List.rev utils));
  (* Paper: time follows efficiency until the utilization collapse
     counters it at tiling 16.  In our simulator the counter-effect
     appears as saturation — the t8 -> t16 gain shrinks to a fraction
     of the earlier gains despite efficiency still improving 18%
     (see EXPERIMENTS.md on the in-order-pipe difference from
     silicon, where the curve turned slightly upward). *)
  match List.map (fun (m : Tuner.Search.measured) -> m.time_s) sweep with
  | [ _t1; t2; t4; t8; t16 ] ->
    let gain_mid = t4 -. t8 and gain_last = t8 -. t16 in
    check "returns collapse at tiling 16 as utilization falls (time saturates)"
      (gain_last < 0.5 *. gain_mid);
    check "efficiency alone would overshoot: t16 is no real improvement on t8"
      (t16 > t8 *. 0.9 && t2 > t8)
  | _ -> check "tiling sweep has five points" false

(* ------------------------------------------------------------------ *)
(* Figure 6 + Table 4: Pareto pruning for all four applications        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6: Searching by Pareto-Optimal Performance Metrics";
  List.iter
    (fun (r : Tuner.Search.result) ->
      printf "\n--- %s: %d configurations, %d Pareto-selected ---\n" r.app_name r.space_size
        (List.length r.selected);
      print_string (Tuner.Report.figure6 r);
      check
        (Printf.sprintf "%s: optimum on the Pareto curve (<= 2%% equivalence)" r.app_name)
        r.optimum_selected;
      printf "      (strict argmin selected: %b; pruned-search pick: %s, %.4f ms vs optimum %.4f ms)\n"
        r.optimum_exact r.selected_best.cand.desc
        (r.selected_best.time_s *. 1000.0) (r.best.time_s *. 1000.0))
    (all_results ())

let table4 () =
  section "Table 4: Parameter Search Properties";
  let rs = all_results () in
  print_string (Tuner.Report.table Tuner.Report.table4_header (List.map Tuner.Report.table4_row rs));
  printf "\n(evaluation times are simulated GPU seconds: the cost the paper pays on hardware)\n";
  List.iter
    (fun (r : Tuner.Search.result) ->
      check
        (Printf.sprintf "%s: search space reduced by >= 50%%" r.app_name)
        (r.reduction >= 0.5))
    rs;
  check "best reduction reaches the paper's 74-98% band"
    (List.exists (fun (r : Tuner.Search.result) -> r.reduction >= 0.74) rs)

(* ------------------------------------------------------------------ *)
(* Table 3: application suite and speedups                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: Application Suite (speedup over single-thread CPU model)";
  let mm = Lazy.force matmul_result in
  let cp = Lazy.force cp_result in
  let sad = Lazy.force sad_result in
  let mri = Lazy.force mri_result in
  let cp_p = Apps.Cp.sizes Paper in
  let sad_p = Apps.Sad.sizes Paper in
  let mri_p = Apps.Mri_fhd.sizes Paper in
  let rows =
    [
      Apps.Cpu_model.row ~app:"Matrix Multiplication"
        ~description:(Printf.sprintf "dense %dx%d SGEMM (CPU: MKL-class)" matmul_n matmul_n)
        ~cpu_s:(Apps.Cpu_model.matmul_seconds ~n:matmul_n)
        ~gpu_s:mm.best.time_s;
      Apps.Cpu_model.row ~app:"CP"
        ~description:(Printf.sprintf "%dx%d grid, %d atoms" cp_p.npx cp_p.npy cp_p.natoms)
        ~cpu_s:(Apps.Cpu_model.cp_seconds ~interactions:(Apps.Cp.interactions cp_p))
        ~gpu_s:cp.best.time_s;
      Apps.Cpu_model.row ~app:"SAD"
        ~description:
          (Printf.sprintf "QCIF %dx%d, 4x4 blocks, +-%d search" sad_p.w sad_p.h sad_p.sr)
        ~cpu_s:(Apps.Cpu_model.sad_seconds ~absdiff_ops:(Apps.Sad.absdiff_ops sad_p))
        ~gpu_s:sad.best.time_s;
      Apps.Cpu_model.row ~app:"MRI-FHD"
        ~description:
          (Printf.sprintf "%d voxels, %d k-space samples" mri_p.nvox mri_p.nsamples)
        ~cpu_s:(Apps.Cpu_model.mri_seconds ~interactions:(Apps.Mri_fhd.interactions mri_p))
        ~gpu_s:mri.best.time_s;
    ]
  in
  print_string
    (Tuner.Report.table
       [ "Application"; "Description"; "CPU (model)"; "GPU (sim)"; "Speedup" ]
       (List.map
          (fun (r : Apps.Cpu_model.row) ->
            [
              r.app;
              r.description;
              Printf.sprintf "%.4f s" r.cpu_s;
              Printf.sprintf "%.6f s" r.gpu_s;
              Printf.sprintf "%.1fx" r.speedup;
            ])
          rows));
  let sp app = (List.find (fun (r : Apps.Cpu_model.row) -> r.app = app) rows).speedup in
  check "speedup ordering: CP >> MRI-FHD >> {matmul, SAD} (paper's shape)"
    (sp "CP" > sp "MRI-FHD"
    && sp "MRI-FHD" > sp "Matrix Multiplication"
    && sp "MRI-FHD" > sp "SAD")

(* ------------------------------------------------------------------ *)
(* Ablations: single-metric pruning and random sampling                *)
(* ------------------------------------------------------------------ *)

(* Section 5.1 of the paper argues that "neither [metric] is sufficient
   in isolation"; section 7 proposes comparing the method against
   random sampling of the space.  Both studies, run on every app:

   - prune with efficiency only / utilization only / both (the paper's
     method), and report the best configuration each finds;
   - random sampling with the same measurement budget as the Pareto
     subset, repeated over many seeds: how often does it find a
     configuration as good as the Pareto pick? *)
let ablation () =
  section "Ablation: single-metric pruning and random sampling (paper secs 5.1, 7)";
  let header =
    [
      "Kernel"; "budget"; "Pareto pick"; "eff-only pick"; "util-only pick";
      "random hit rate";
    ]
  in
  let rows =
    List.map
      (fun (r : Tuner.Search.result) ->
        let time_of (c : Tuner.Candidate.t) =
          match
            List.find_opt (fun (m : Tuner.Search.measured) -> m.cand.desc = c.desc) r.exhaustive
          with
          | Some m -> m.time_s
          | None -> infinity
        in
        let budget = List.length r.selected in
        (* Single-metric "frontier" = the top-k by that metric alone,
           with the same measurement budget. *)
        let top_k_by proj =
          let sorted =
            List.sort (fun (_, a) (_, b) -> compare (proj b) (proj a)) r.all
          in
          List.filteri (fun idx _ -> idx < budget) sorted
        in
        let best_of sel =
          List.fold_left (fun acc (c, _) -> Float.min acc (time_of c)) infinity sel
        in
        let eff_best = best_of (top_k_by (fun (m : Tuner.Metrics.t) -> m.efficiency)) in
        let util_best = best_of (top_k_by (fun (m : Tuner.Metrics.t) -> m.utilization)) in
        let pareto_best = r.selected_best.time_s in
        (* Random sampling at equal budget: fraction of 200 seeded draws
           whose best sampled config is within 2% of the Pareto pick. *)
        let cands = Array.of_list r.exhaustive in
        let trials = 200 in
        let hits = ref 0 in
        for seed = 1 to trials do
          let rng = Util.Rng.create (seed * 7919) in
          let best = ref infinity in
          for _ = 1 to budget do
            let m = cands.(Util.Rng.int rng (Array.length cands)) in
            best := Float.min !best m.time_s
          done;
          if !best <= pareto_best *. 1.02 then incr hits
        done;
        let pct t = Printf.sprintf "%.4f ms (%+.0f%%)" (t *. 1000.0) ((t /. r.best.time_s -. 1.0) *. 100.0) in
        [
          r.app_name;
          string_of_int budget;
          pct pareto_best;
          pct eff_best;
          pct util_best;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int !hits /. float_of_int trials);
        ])
      (all_results ())
  in
  print_string (Tuner.Report.table header rows);
  printf "\n('+N%%' = slower than the true optimum; hit rate = random sampling matching the\n";
  printf " Pareto pick within 2%% at equal measurement budget, over 200 seeds)\n";
  (* What the data supports (and the paper claims in 5.1): a single
     metric can be a badly insufficient predictor — utilization-only
     ranking misses the optimum by a large margin on some apps — while
     the Pareto combination never strays beyond measurement
     equivalence.  Random sampling at the same budget is a coin flip or
     worse on the structured spaces. *)
  let util_gap (r : Tuner.Search.result) =
    let time_of (c : Tuner.Candidate.t) =
      match
        List.find_opt (fun (m : Tuner.Search.measured) -> m.cand.desc = c.desc) r.exhaustive
      with
      | Some m -> m.time_s
      | None -> infinity
    in
    let budget = List.length r.selected in
    let sorted =
      List.sort
        (fun (_, (a : Tuner.Metrics.t)) (_, (b : Tuner.Metrics.t)) ->
          compare b.utilization a.utilization)
        r.all
    in
    let top = List.filteri (fun idx _ -> idx < budget) sorted in
    let best = List.fold_left (fun acc (c, _) -> Float.min acc (time_of c)) infinity top in
    (best /. r.best.time_s) -. 1.0
  in
  check "utilization alone misses the optimum badly on some app (paper 5.1)"
    (List.exists (fun r -> util_gap r > 0.10) (all_results ()));
  check "the Pareto combination stays within 2% everywhere"
    (List.for_all (fun (r : Tuner.Search.result) -> r.optimum_selected) (all_results ()))

(* ------------------------------------------------------------------ *)
(* Pipeline trace: per-pass statistics, one configuration per app      *)
(* ------------------------------------------------------------------ *)

(* Compiles the most heavily transformed configuration of every app
   (the last point of its space) through the verified pipeline with the
   statistics hook on, and prints the per-pass trace. *)
let trace () =
  section "Pipeline trace: per-pass statistics (one configuration per app)";
  List.iter
    (fun (e : Apps.Registry.entry) ->
      let desc = List.hd (List.rev (Lazy.force e.configs)) in
      let stats = ref [] in
      match e.compile ~hook:(fun s -> stats := s :: !stats) desc with
      | exception Tuner.Pipeline.Pass_failed { stage; reason } ->
        printf "\n--- %s %s ---\n" e.display desc;
        check (Printf.sprintf "%s: per-stage verification clean" e.name) false;
        printf "  pass %s failed: %s\n" stage reason
      | Error msg ->
        printf "\n--- %s ---\n" e.display;
        check (Printf.sprintf "%s: per-stage verification clean" e.name) false;
        printf "  %s\n" msg
      | Ok c ->
        printf "\n--- %s %s (%d instrs, %d regs/thread) ---\n" e.display desc
          (Ptx.Prog.static_size c.ptx) c.resource.regs_per_thread;
        print_string (Tuner.Pipeline.trace_table (List.rev !stats));
        check (Printf.sprintf "%s: per-stage verification clean" e.name) true)
    Apps.Registry.all

(* ------------------------------------------------------------------ *)
(* Static lints: the memory-access analyzer on every app               *)
(* ------------------------------------------------------------------ *)

(* Run the affine analyzer on every app's quick-scale workbench, print
   the lint reports, and cross-validate every static transaction /
   bank-conflict prediction against the simulator's per-site counters
   (exact agreement required on analyzable sites).  Then demonstrate
   the bug detectors on deliberately broken matmul variants. *)
let lint () =
  section "Static lints: memory-access analysis, cross-validated against the simulator";
  List.iter
    (fun (e : Apps.Registry.entry) ->
      match e.workbench () with
      | Error msg ->
        printf "%s: %s\n" e.name msg;
        check (Printf.sprintf "%s: analysis workbench builds" e.name) false
      | Ok wb ->
        let report = Apps.Workbench.lint wb in
        printf "\n";
        print_string (Analysis.Lint.render report);
        let cv = Apps.Workbench.crossval wb in
        printf "  crossval: %d sites, %d checked, %d not analyzable, %d mismatches\n"
          cv.Analysis.Crossval.cv_total cv.Analysis.Crossval.cv_checked
          cv.Analysis.Crossval.cv_top cv.Analysis.Crossval.cv_mismatches;
        check
          (Printf.sprintf "%s: race-free, all barriers convergent" e.name)
          (not (Analysis.Lint.has_errors report));
        check
          (Printf.sprintf "%s: static = dynamic on all %d analyzable sites" e.name
             cv.Analysis.Crossval.cv_checked)
          (cv.Analysis.Crossval.cv_mismatches = 0
          && cv.Analysis.Crossval.cv_checked > 0
          && cv.Analysis.Crossval.cv_total
             = cv.Analysis.Crossval.cv_checked + cv.Analysis.Crossval.cv_top))
    Apps.Registry.all;
  (* The detectors on known-bad kernels: drop the second barrier of the
     matmul tile loop (classic read-before-write race), transpose the
     As store (classic bank conflict). *)
  match (registry "matmul").workbench () with
  | Error msg -> printf "matmul workbench: %s\n" msg
  | Ok wb ->
    let mutant kind = Result.get_ok (Apps.Workbench.mutation wb kind) in
    let racy = Apps.Workbench.lint_mutant wb (mutant `Race) in
    check "barrier-dropped matmul mutant is flagged as racy"
      (racy.Analysis.Lint.r_races.Analysis.Races.findings <> []);
    let conflicted = Apps.Workbench.lint_mutant wb (mutant `Bank) in
    let has_conflict =
      List.exists
        (fun (sr : Analysis.Lint.site_report) ->
          match sr.Analysis.Lint.sr_verdict with
          | Analysis.Lint.Bank_conflict _ -> true
          | _ -> false)
        conflicted.Analysis.Lint.r_sites
    in
    check "store-transposed matmul mutant has bank conflicts" has_conflict

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the static pipeline                      *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  section "Bechamel: static-pipeline micro-benchmarks (one per exhibit)";
  let open Bechamel in
  let mm_cfg = { Apps.Matmul.tile = 16; rect = 2; unroll = 4; prefetch = true; spill = false } in
  let compile_mm () = Apps.App.compile Apps.Matmul.app (Apps.Matmul.sizes Bench) mm_cfg in
  let paper_ptx app cfg = (Apps.App.compile app (app.Apps.App.sizes Paper) cfg).ptx in
  let mm_ptx = (compile_mm ()).ptx in
  let cp_ptx = paper_ptx Apps.Cp.app { block_y = 8; tiling = 4; coalesce = true } in
  let sad_ptx = paper_ptx Apps.Sad.app { tpb = 64; tiling = 2; u_vec = 2; u_py = 2; u_px = 4 } in
  let mri_ptx = paper_ptx Apps.Mri_fhd.app { tpb = 128; unroll = 4; wpt = 2 } in
  let mk_metric ptx tpb threads () =
    let res = Ptx.Resource.of_kernel ptx in
    let prof = Ptx.Count.profile_of ptx in
    let occ =
      Gpu.Arch.occupancy ~threads_per_block:tpb ~regs_per_thread:res.regs_per_thread
        ~smem_per_block:res.smem_bytes_per_block ()
    in
    Tuner.Metrics.compute ~instr:prof.instr ~regions:prof.regions ~threads
      ~warps_per_block:occ.warps_per_block ~blocks_per_sm:occ.blocks_per_sm
  in
  let pareto_points =
    List.init 1000 (fun k ->
        let x = float_of_int (k * 7919 mod 1000) /. 1000.0 in
        let y = float_of_int (k * 104729 mod 1000) /. 1000.0 in
        { Tuner.Pareto.x; y })
  in
  let tests =
    [
      Test.make ~name:"table1/arch-occupancy"
        (Staged.stage (fun () ->
             Gpu.Arch.occupancy ~threads_per_block:256 ~regs_per_thread:10 ~smem_per_block:4096 ()));
      Test.make ~name:"table2/resource-report"
        (Staged.stage (fun () -> Ptx.Resource.of_kernel mm_ptx));
      Test.make ~name:"fig3/matmul-compile"
        (Staged.stage compile_mm);
      Test.make ~name:"fig4/sad-metrics" (Staged.stage (mk_metric sad_ptx 64 1e6));
      Test.make ~name:"fig5/cp-metrics" (Staged.stage (mk_metric cp_ptx 128 1e5));
      Test.make ~name:"fig6/pareto-frontier"
        (Staged.stage (fun () -> Tuner.Pareto.frontier_points pareto_points));
      Test.make ~name:"table3/mri-metrics" (Staged.stage (mk_metric mri_ptx 128 53760.0));
      Test.make ~name:"table4/instr-count" (Staged.stage (fun () -> Ptx.Count.profile_of mm_ptx));
    ]
  in
  List.iter
    (fun test ->
      let instances = Toolkit.Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
      let results = Benchmark.all cfg instances test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ t ] -> printf "  %-28s %12.1f ns/run\n%!" name t
          | _ -> printf "  %-28s (no estimate)\n%!" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Chaos: fault-tolerance exhibit                                      *)
(* ------------------------------------------------------------------ *)

(* The robustness claim, demonstrated on the quick matmul space: a
   sweep with seeded injected faults (a crashing thunk, a runaway
   kernel the watchdog cuts off, a corrupt pass the verifier rejects)
   reports every fault, still finds the surviving optimum exactly, and
   a sweep killed partway resumes through the result store to the
   identical result. *)
let chaos () =
  section "Chaos: fault-injected sweep + kill/resume through the store (matmul quick)";
  let narrative, checks =
    Tuner.Chaos.self_test ~jobs:!jobs ~app_name:"matmul" ~seed:2008 ~count:6 ~hit_frontier:false
      ((registry "matmul").candidates Quick)
  in
  print_string narrative;
  List.iter (fun (name, ok) -> check name ok) checks

(* ------------------------------------------------------------------ *)
(* Serve: tuning-as-a-service load harness                             *)
(* ------------------------------------------------------------------ *)

(* The daemon under load.  A server is spawned on a Unix-domain socket
   with a fresh content-addressed store, then:

   - cold phase: one served explore per application, checked
     bit-identical to a direct [Search.run] over the same space;
   - mixed phase: a deterministic stream of concurrent requests (warm
     explores and tunes across all four apps, pings, stats, and
     chaos-faulted sweeps that bypass the store) replayed from parallel
     client domains, every reply validated, every exchange timed.

   Reports p50/p99 latency per request class and the store hit rate,
   and writes BENCH_serve.json so the serving perf trajectory is
   machine-checkable across commits.  GPUOPT_SERVE_REQUESTS overrides
   the mixed-phase request count (CI runs a reduced battery). *)

let serve_apps = [ "matmul"; "cp"; "sad"; "mri" ]

let serve () =
  let module P = Tuner.Proto in
  let module Srv = Tuner.Serve in
  let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let requested =
    match Sys.getenv_opt "GPUOPT_SERVE_REQUESTS" with
    | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1200)
    | None -> 1200
  in
  let nclients = 4 and conn_workers = 4 in
  let per_client = max 16 ((requested + nclients - 1) / nclients) in
  let total = per_client * nclients in
  section
    (Printf.sprintf
       "Serve: tuning-as-a-service load harness (%d mixed requests, %d clients, %d conn workers)"
       total nclients conn_workers);
  let store_file = Filename.temp_file "gpuopt-serve-bench-" ".store" in
  let socket = Filename.temp_file "gpuopt-serve-bench-" ".sock" in
  let cleanup f = try Sys.remove f with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () -> cleanup store_file; cleanup socket)
    (fun () ->
      let store = Tuner.Store.open_ ~file:store_file () in
      Fun.protect
        ~finally:(fun () -> Tuner.Store.close store)
        (fun () ->
          let server = Srv.create ~jobs:!jobs ~store (Apps.Serving.resolver ()) in
          let daemon =
            Domain.spawn (fun () -> Srv.listen ~conn_workers ~poll_s:0.05 server ~socket ())
          in
          check "daemon comes up" (Srv.wait_ready ~socket ());
          (* ---- cold phase: served = direct, bit for bit ---------- *)
          let rows ms =
            List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) ms
          in
          let pair_eq (d, t) (d', t') = d = d' && feq t t' in
          let same_explore (direct : Tuner.Search.result) (x : P.explore_reply) : bool =
            let got = List.map (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s)) x.x_exhaustive in
            let want = rows direct.exhaustive in
            x.x_space_size = direct.space_size
            && List.length got = List.length want
            && List.for_all2 pair_eq want got
            && pair_eq (direct.best.cand.desc, direct.best.time_s) (x.x_best.m_desc, x.x_best.m_time_s)
            && pair_eq
                 (direct.selected_best.cand.desc, direct.selected_best.time_s)
                 (x.x_selected_best.m_desc, x.x_selected_best.m_time_s)
            && x.x_selected
               = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) direct.selected
            && feq direct.reduction x.x_reduction
            && x.x_optimum_selected = direct.optimum_selected
          in
          let cold =
            List.map
              (fun app ->
                let e = registry app in
                let direct = Tuner.Search.run ~jobs:!jobs ~app_name:app (e.candidates Quick) in
                let t0 = Unix.gettimeofday () in
                let reply = Srv.call ~socket (P.Explore { app; scale = P.Quick; chaos = None; arch = None; predict = false; deadline_ms = None }) in
                let dt = Unix.gettimeofday () -. t0 in
                match reply with
                | Ok (P.Explore_r x) -> (app, dt, same_explore direct x)
                | _ -> (app, dt, false))
              serve_apps
          in
          List.iter
            (fun (app, dt, _) -> printf "  cold %-8s %8.1f ms (space measured + stored)\n" app (dt *. 1000.0))
            cold;
          check "served cold explore bit-identical to direct Search.run (all four apps)"
            (List.for_all (fun (_, _, ok) -> ok) cold);
          (* ---- mixed phase: concurrent deterministic stream ------ *)
          let app_of gi = List.nth serve_apps (gi / 4 mod 4) in
          let request_of gi : string * P.request =
            if gi mod 64 = 31 then
              ("chaos",
               P.Explore
                 { app = "matmul"; scale = P.Quick; chaos = Some { P.ch_seed = gi; ch_count = 2 }; arch = None;
                   predict = false; deadline_ms = None })
            else if gi mod 16 = 5 then ("ping", P.Ping)
            else if gi mod 16 = 13 then ("stats", P.Stats)
            else if gi mod 4 = 2 then ("tune", P.Tune { app = app_of gi; scale = P.Quick; arch = None; deadline_ms = None })
            else ("explore", P.Explore { app = app_of gi; scale = P.Quick; chaos = None; arch = None; predict = false; deadline_ms = None })
          in
          let validate kind (resp : (P.response, string) result) : string option =
            match (kind, resp) with
            | _, Error e -> Some ("transport: " ^ e)
            | "ping", Ok P.Pong -> None
            | "stats", Ok (P.Stats_r _) -> None
            | "tune", Ok (P.Tune_r r) ->
              if r.t_runs = 0 then None else Some "warm tune ran the simulator"
            | "explore", Ok (P.Explore_r x) ->
              if x.x_runs <> 0 then Some "warm explore ran the simulator"
              else if x.x_faults <> [] then Some "warm explore reported faults"
              else None
            | "chaos", Ok (P.Explore_r x) ->
              if x.x_store_hits <> 0 then Some "chaos sweep touched the store"
              else if List.length x.x_faults <> 2 then Some "chaos fault count wrong"
              else if
                List.exists
                  (fun (f : P.fault_row) -> Tuner.Fault.decode f.f_fault = None)
                  x.x_faults
              then Some "chaos fault not in the fault encoding"
              else None
            | k, Ok _ -> Some (k ^ ": unexpected reply type")
          in
          let run_client off count =
            Srv.with_client ~socket (fun fd ->
                let lats = Array.make count ("", 0.0) in
                let bad = ref [] in
                for i = 0 to count - 1 do
                  let gi = off + i in
                  let kind, req = request_of gi in
                  let t0 = Unix.gettimeofday () in
                  let resp = Srv.rpc fd req in
                  lats.(i) <- (kind, Unix.gettimeofday () -. t0);
                  match validate kind resp with
                  | None -> ()
                  | Some msg -> bad := Printf.sprintf "request %d (%s): %s" gi kind msg :: !bad
                done;
                (lats, List.rev !bad))
          in
          let t0 = Unix.gettimeofday () in
          let clients =
            List.init nclients (fun k ->
                Domain.spawn (fun () -> run_client (k * per_client) per_client))
          in
          let results = List.map Domain.join clients in
          let wall = Unix.gettimeofday () -. t0 in
          let lats = Array.concat (List.map fst results) in
          let bad = List.concat_map snd results in
          List.iteri (fun i m -> if i < 5 then printf "  MALFORMED %s\n" m) bad;
          check "mixed phase: zero transport errors, zero malformed replies" (bad = []);
          (* ---- latency statistics -------------------------------- *)
          let percentile xs p =
            let n = Array.length xs in
            if n = 0 then Float.nan else xs.(min (n - 1) (int_of_float (p *. float_of_int n)))
          in
          let classes = [ "explore"; "tune"; "ping"; "stats"; "chaos" ] in
          let stats_of kind =
            let xs =
              Array.of_list
                (List.filter_map
                   (fun (k, dt) -> if k = kind then Some dt else None)
                   (Array.to_list lats))
            in
            Array.sort compare xs;
            (kind, Array.length xs, percentile xs 0.50, percentile xs 0.99, percentile xs 1.0)
          in
          let per_class = List.map stats_of classes in
          let all = Array.map snd lats in
          Array.sort compare all;
          let p50_all = percentile all 0.50 and p99_all = percentile all 0.99 in
          print_string
            (Tuner.Report.table
               [ "Class"; "Requests"; "p50 (ms)"; "p99 (ms)"; "max (ms)" ]
               (List.map
                  (fun (k, n, p50, p99, mx) ->
                    [
                      k;
                      string_of_int n;
                      Printf.sprintf "%.2f" (p50 *. 1000.0);
                      Printf.sprintf "%.2f" (p99 *. 1000.0);
                      Printf.sprintf "%.2f" (mx *. 1000.0);
                    ])
                  per_class));
          printf "mixed phase: %d requests in %.2fs (%.0f req/s); p50 %.2f ms, p99 %.2f ms\n"
            total wall
            (float_of_int total /. wall)
            (p50_all *. 1000.0) (p99_all *. 1000.0);
          check "p99 latency across the mixed phase under 30 s" (p99_all < 30.0);
          (* ---- hit rate and shutdown ----------------------------- *)
          let hits, misses, entries, runs =
            match Srv.call ~socket P.Stats with
            | Ok (P.Stats_r s) -> (s.sv_store_hits, s.sv_store_misses, s.sv_store_entries, s.sv_runs)
            | _ ->
              check "final stats reply" false;
              (0, 1, 0, 0)
          in
          let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
          printf "store: %d hits / %d misses (hit rate %.2f%%), %d entries, %d simulator runs total\n"
            hits misses (100.0 *. hit_rate) entries runs;
          check
            (Printf.sprintf "warm-cache hit rate >= 90%% (measured %.1f%%)" (100.0 *. hit_rate))
            (hit_rate >= 0.90);
          (match Srv.call ~socket P.Shutdown with
          | Ok P.Bye -> ()
          | _ -> check "shutdown acknowledged" false);
          Domain.join daemon;
          check "daemon shut down cleanly; socket unlinked" (not (Sys.file_exists socket));
          (* ---- BENCH_serve.json ---------------------------------- *)
          let ms x = Util.Json.Float (x *. 1000.0) in
          write_json "BENCH_serve.json"
            Util.Json.(
              Obj
                [
                  ("bench", Str "serve");
                  ("requests", Int total);
                  ("clients", Int nclients);
                  ("conn_workers", Int conn_workers);
                  ("jobs", Int !jobs);
                  ("wall_s", Float wall);
                  ("throughput_rps", Float (float_of_int total /. wall));
                  ("p50_ms", ms p50_all);
                  ("p99_ms", ms p99_all);
                  ("hit_rate", Float hit_rate);
                  ( "store",
                    Obj
                      [
                        ("hits", Int hits);
                        ("misses", Int misses);
                        ("entries", Int entries);
                        ("sim_runs", Int runs);
                      ] );
                  ("cold_ms", Obj (List.map (fun (app, dt, _) -> (app, ms dt)) cold));
                  ( "classes",
                    List
                      (List.map
                         (fun (k, n, p50, p99, mx) ->
                           Obj
                             [
                               ("class", Str k);
                               ("count", Int n);
                               ("p50_ms", ms p50);
                               ("p99_ms", ms p99);
                               ("max_ms", ms mx);
                             ])
                         per_class) );
                ])))

(* ------------------------------------------------------------------ *)
(* Chaos-net: the hardened daemon under wire-level fire                *)
(* ------------------------------------------------------------------ *)

(* The daemon runs in a *forked child* so it can be killed with
   SIGKILL mid-sweep — a Domain can be asked to stop, but only a
   process can die without warning.  Three phases:

   - baseline: cold served explores over matmul and cp, checked
     bit-identical to a direct [Search.run] (the serve exhibit's
     invariant, re-proved on a durable store);
   - assault: a seeded schedule of wire faults (torn frames, flipped
     bytes, slow loris, vanish-before-reply) interleaved with honest
     clients using the retrying [Serve.call].  The daemon must answer
     at least 90% of the honest requests, an expired deadline on a
     cold space must come back as a typed Deadline_exceeded, and the
     warm store must still answer under that same expired deadline;
   - kill -9: the daemon dies mid-sweep, the durable store is fsck'd
     (at most the torn tail lost) and compacted, and a restarted
     daemon serves warm results bit-identical to the pre-kill ground
     truth with zero simulator runs.

   Writes BENCH_chaos_net.json.  GPUOPT_CHAOS_STRIKES overrides the
   assault length (CI runs a reduced battery). *)

let chaos_net_apps = [ "matmul"; "cp" ]

let chaos_net () =
  let module P = Tuner.Proto in
  let module Srv = Tuner.Serve in
  let module CN = Tuner.Chaos.Net in
  let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let strikes =
    match Sys.getenv_opt "GPUOPT_CHAOS_STRIKES" with
    | Some s -> (match int_of_string_opt s with Some n when n >= 4 -> n | _ -> 48)
    | None -> 48
  in
  section
    (Printf.sprintf "Chaos-net: wire faults, deadlines and kill -9 (%d strikes, durable store)"
       strikes);
  Srv.ignore_sigpipe ();
  let socket = Filename.temp_file "gpuopt-chaos-net-" ".sock" in
  let store_file = Filename.temp_file "gpuopt-chaos-net-" ".store" in
  let cleanup f = try Sys.remove f with Sys_error _ -> () in
  (* Ground truth before any daemon exists: direct sweeps of the same
     quick spaces the served explores will cover. *)
  let direct =
    List.map
      (fun app -> (app, Tuner.Search.run ~jobs:!jobs ~app_name:app ((registry app).candidates Quick)))
      chaos_net_apps
  in
  let pair_eq (d, t) (d', t') = d = d' && feq t t' in
  let same_explore (d : Tuner.Search.result) (x : P.explore_reply) : bool =
    let got = List.map (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s)) x.x_exhaustive in
    let want = List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) d.exhaustive in
    x.x_space_size = d.space_size
    && List.length got = List.length want
    && List.for_all2 pair_eq want got
    && pair_eq (d.best.cand.desc, d.best.time_s) (x.x_best.m_desc, x.x_best.m_time_s)
  in
  let explore_req ?deadline_ms app =
    P.Explore { app; scale = P.Quick; chaos = None; arch = None; predict = false; deadline_ms }
  in
  (* Daemon child: killable with SIGKILL, which a Domain is not.  The
     child opens its own durable store handle; stdout is flushed
     before forking so buffered bench output is not printed twice. *)
  let rec fork_retry n =
    (* A domain joined moments ago can still be tearing down, which
       makes Unix.fork refuse transiently; back off and retry. *)
    match Unix.fork () with
    | pid -> pid
    | exception Failure _ when n > 0 ->
      Unix.sleepf 0.05;
      fork_retry (n - 1)
  in
  let spawn_daemon () : int =
    flush stdout;
    match fork_retry 40 with
    | 0 ->
      let code =
        try
          let store = Tuner.Store.open_ ~durable:true ~file:store_file () in
          let server = Srv.create ~jobs:2 ~store (Apps.Serving.resolver ()) in
          Srv.listen ~conn_workers:2 ~poll_s:0.05 ~io_timeout_s:1.0 server ~socket ();
          Tuner.Store.close store;
          0
        with _ -> 1
      in
      Unix._exit code
    | pid -> pid
  in
  let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () -> cleanup socket; cleanup store_file)
    (fun () ->
      (* ---- baseline: cold served = direct, bit for bit ------------ *)
      let pid = ref (spawn_daemon ()) in
      check "daemon comes up in a forked child" (Srv.wait_ready ~socket ());
      let cold_ok =
        List.for_all
          (fun (app, d) ->
            match Srv.call ~socket (explore_req app) with
            | Ok (P.Explore_r x) -> same_explore d x
            | _ -> false)
          direct
      in
      check "cold served explores bit-identical to direct Search.run" cold_ok;
      (match Srv.call ~socket (explore_req ~deadline_ms:0 "sad") with
      | Ok (P.Error_r e) ->
        check "expired deadline on a cold space: typed Deadline_exceeded"
          (e.e_code = P.Deadline_exceeded)
      | _ -> check "expired deadline on a cold space: typed Deadline_exceeded" false);
      (match Srv.call ~socket (explore_req ~deadline_ms:0 "matmul") with
      | Ok (P.Explore_r x) ->
        check "warm store answers under the same expired deadline, zero runs"
          (x.x_runs = 0 && same_explore (List.assoc "matmul" direct) x)
      | _ -> check "warm store answers under the same expired deadline, zero runs" false);
      (* ---- assault: seeded wire faults vs honest clients ---------- *)
      let rng = Util.Rng.create 1907 in
      let schedule = CN.plan ~seed:1907 ~count:strikes in
      let ammo = P.encode_request (explore_req "matmul") in
      let honest_ok = ref 0 and honest_total = ref 0 in
      List.iteri
        (fun i fault ->
          let note =
            CN.strike ~loris_interval_s:0.2 ~loris_max_bytes:4 ~rng ~socket ~payload:ammo fault
          in
          if i < List.length CN.all_faults then
            printf "  strike %-22s %s\n" (CN.fault_name fault) note;
          incr honest_total;
          let req =
            if i mod 3 = 0 then P.Ping else explore_req (List.nth chaos_net_apps (i mod 2))
          in
          match Srv.call ~retries:2 ~retry_base_ms:20 ~socket req with
          | Ok P.Pong | Ok (P.Explore_r _) -> incr honest_ok
          | _ -> ())
        schedule;
      let tally =
        List.map
          (fun f -> (CN.fault_name f, List.length (List.filter (( = ) f) schedule)))
          CN.all_faults
      in
      let avail = float_of_int !honest_ok /. float_of_int (max 1 !honest_total) in
      printf "assault: %d strikes (%s); honest availability %d/%d (%.1f%%)\n" strikes
        (String.concat ", " (List.map (fun (n, c) -> Printf.sprintf "%s %d" n c) tally))
        !honest_ok !honest_total (100.0 *. avail);
      check "honest availability under fire >= 90%" (avail >= 0.90);
      let warm_ok =
        List.for_all
          (fun (app, d) ->
            match Srv.call ~socket (explore_req app) with
            | Ok (P.Explore_r x) -> x.x_runs = 0 && same_explore d x
            | _ -> false)
          direct
      in
      check "post-assault warm explores: zero simulator runs, bit-identical" warm_ok;
      (* ---- kill -9 mid-sweep, fsck, restart ------------------------ *)
      (* The victim is a raw connection rather than a client domain:
         fork (for the restart below) must not race a domain teardown,
         and a dead stream is exactly what a killed daemon looks like
         on the wire anyway. *)
      let victim = CN.connect ~socket in
      let frame = P.frame (P.encode_request (explore_req "sad")) in
      (try CN.write_all victim frame 0 (String.length frame) with Unix.Unix_error _ -> ());
      Unix.sleepf 0.1;
      Unix.kill !pid Sys.sigkill;
      reap !pid;
      (match CN.await_reaction ~timeout_s:2.0 victim with
      | `Reply _ -> printf "  victim sweep finished before the kill landed\n"
      | `Closed | `Silent -> printf "  victim client saw the daemon die mid-sweep\n");
      CN.close_quietly victim;
      let report = Tuner.Store.fsck ~file:store_file in
      printf "  fsck after kill -9: %d records, %d valid, %d corrupt, %d reclaimable bytes\n"
        report.Tuner.Store.fs_records report.Tuner.Store.fs_valid
        (List.length report.Tuner.Store.fs_corrupt)
        report.Tuner.Store.fs_reclaimable;
      check "kill -9 loses at most the torn tail (fsck: <= 1 corrupt record)"
        (List.length report.Tuner.Store.fs_corrupt <= 1);
      let _, reclaimed = Tuner.Store.compact ~file:store_file in
      let clean = Tuner.Store.fsck ~file:store_file in
      check "compacted store is clean (0 corrupt, 0 duplicates)"
        (clean.Tuner.Store.fs_corrupt = [] && clean.Tuner.Store.fs_duplicates = 0);
      printf "  compact reclaimed %d bytes\n" reclaimed;
      pid := spawn_daemon ();
      check "daemon restarts on the killed store" (Srv.wait_ready ~socket ());
      let post_ok =
        List.for_all
          (fun (app, d) ->
            match Srv.call ~socket (explore_req app) with
            | Ok (P.Explore_r x) -> x.x_runs = 0 && same_explore d x
            | _ -> false)
          direct
      in
      check "post-restart warm explores bit-identical, zero simulator runs" post_ok;
      (match Srv.call ~socket (explore_req "sad") with
      | Ok (P.Explore_r x) ->
        let d = Tuner.Search.run ~jobs:!jobs ~app_name:"sad" ((registry "sad").candidates Quick) in
        check "interrupted sweep completes after restart, bit-identical" (same_explore d x)
      | _ -> check "interrupted sweep completes after restart, bit-identical" false);
      (match Srv.call ~socket P.Shutdown with
      | Ok P.Bye -> ()
      | _ -> check "shutdown acknowledged" false);
      reap !pid;
      check "socket unlinked on clean shutdown" (not (Sys.file_exists socket));
      (* ---- BENCH_chaos_net.json ------------------------------------ *)
      write_json "BENCH_chaos_net.json"
        Util.Json.(
          Obj
            [
              ("bench", Str "chaos_net");
              ("strikes", Int strikes);
              ("availability", Float avail);
              ("honest_ok", Int !honest_ok);
              ("honest_total", Int !honest_total);
              ("faults", Obj (List.map (fun (n, c) -> (n, Int c)) tally));
              ( "fsck_after_kill",
                Obj
                  [
                    ("records", Int report.Tuner.Store.fs_records);
                    ("valid", Int report.Tuner.Store.fs_valid);
                    ("corrupt", Int (List.length report.Tuner.Store.fs_corrupt));
                    ("reclaimable_bytes", Int report.Tuner.Store.fs_reclaimable);
                  ] );
              ("compact_reclaimed_bytes", Int reclaimed);
            ]))

(* ------------------------------------------------------------------ *)
(* Superopt: the tiered rule-discovery funnel                          *)
(* ------------------------------------------------------------------ *)

(* Bounded superoptimizer discovery on g80: run the full enumeration
   through the equivalence funnel, report the per-tier rejection
   counts and discovery throughput, check the headline guarantees
   (enough rules, worker-count invariance, no rule refutable by fresh
   random vectors, the hand-written Ptx.Opt folds rediscovered), and
   write BENCH_superopt.json so the discovery-rate trajectory is
   machine-checkable across commits. *)
let superopt () =
  section "Superopt: tiered rule discovery + equivalence funnel (g80)";
  let module So = Tuner.Superopt in
  let module P = Ptx.Patterns in
  let r = So.discover ~jobs:!jobs () in
  let f = r.So.funnel in
  print_string (So.funnel_table f);
  let q, b, e = So.tier_counts r.So.rules in
  let nrules = List.length r.So.rules in
  let rate = float_of_int f.So.fn_pairs /. Float.max 1e-9 r.So.elapsed_s in
  printf "%d rules (%d quick / %d bounded / %d exhaustive), %.1fs, %.0f candidate pairs/s\n"
    nrules q b e r.So.elapsed_s rate;
  printf "db digest: %s (key %s)\n" (P.digest r.So.rules) (So.db_key ());
  check "bounded discovery harvests >= 10 verified rules" (nrules >= 10);
  check "every rule is wellformed" (List.for_all P.wellformed r.So.rules);
  let has lhs rhs =
    List.exists
      (fun (ru : P.rule) -> Ptx.Window.key ru.P.lhs = lhs && Ptx.Window.key ru.P.rhs = rhs)
      r.So.rules
  in
  check "machine-checked equivalents of the Ptx.Opt folds present"
    (has "add.s32 %r1, %r0, 0;" "mov.s32 %r1, %r0;"
    && has "mul.f32 %f1, %f0, 1.0;" "mov.f32 %f1, %f0;"
    && has "add.f32 %f1, %f0, -0.0;" "mov.f32 %f1, %f0;");
  check "the unsound x+0.0 fold is absent (PR 1's signed-zero bug)"
    (not (List.exists (fun (ru : P.rule) -> Ptx.Window.key ru.P.lhs = "add.f32 %f1, %f0, 0.0;") r.So.rules));
  (* Worker-count invariance, on the single-instruction tier so the
     second discovery stays cheap. *)
  let d1 = So.discover ~jobs:1 ~max_len:1 () in
  let d4 = So.discover ~jobs:4 ~max_len:1 () in
  check "rule DB bit-identical for --jobs 1 vs --jobs 4"
    (P.to_string d1.So.rules = P.to_string d4.So.rules);
  (* Zero false equivalences: fresh random vectors, disjoint from the
     funnel's seeding, must refute no rule. *)
  let refuted = ref 0 in
  List.iteri
    (fun idx (ru : P.rule) ->
      let rng = Util.Rng.create (0x5eed + idx) in
      let outs = P.outputs ru in
      for _ = 1 to 64 do
        let assign =
          List.map
            (fun reg -> (reg, Ptx.Equiv.random_value rng (Ptx.Reg.ty reg)))
            (Ptx.Window.inputs ru.P.lhs)
        in
        let eval seq =
          let c = Ptx.Equiv.make_ctx assign in
          Ptx.Equiv.run_seq c seq;
          List.map (Ptx.Equiv.reg_value c) outs
        in
        if not (List.for_all2 Ptx.Equiv.equal_value (eval ru.P.lhs) (eval ru.P.rhs)) then
          incr refuted
      done)
    r.So.rules;
  check "zero false equivalences under a fresh adversarial sweep" (!refuted = 0);
  (* The pass on a real kernel: matmul's raw lowering, translation-
     validated after rewriting. *)
  (match (registry "matmul").workbench () with
  | Error msg ->
    printf "matmul workbench: %s\n" msg;
    check "peephole pass rewrites matmul's raw lowering" false
  | Ok wb ->
    let before = Kir.Lower.lower wb.Apps.Workbench.wb_kernel in
    let after, st = Ptx.Peephole.run_stats r.So.rules before in
    printf "matmul raw lowering: %d -> %d instructions, %d window(s) rewritten, %d blocked by liveness\n"
      (Ptx.Prog.static_size before) (Ptx.Prog.static_size after) st.Ptx.Peephole.matched
      st.Ptx.Peephole.blocked;
    check "peephole pass rewrites matmul's raw lowering" (st.Ptx.Peephole.matched >= 1);
    check "rewritten kernel passes translation validation"
      (match Ptx.Equiv.validate before after with Ok _ -> true | Error _ -> false));
  write_json "BENCH_superopt.json"
    Util.Json.(
      Obj
        [
          ("bench", Str "superopt");
          ("arch", Str "g80");
          ("jobs", Int !jobs);
          ("rules", Int nrules);
          ("tiers", Obj [ ("quick", Int q); ("bounded", Int b); ("exhaustive", Int e) ]);
          ( "funnel",
            Obj
              [
                ("windows", Int f.So.fn_lhs);
                ("pairs", Int f.So.fn_pairs);
                ("rejected_quick", Int f.So.fn_quick);
                ("rejected_bounded", Int f.So.fn_bounded);
                ("rejected_exhaustive", Int f.So.fn_exhaustive);
                ("unsupported", Int f.So.fn_unsupported);
                ("passed", Int f.So.fn_passed);
              ] );
          ("elapsed_s", Float r.So.elapsed_s);
          ("pairs_per_s", Float rate);
          ("db_digest", Str (P.digest r.So.rules));
        ])

(* ------------------------------------------------------------------ *)
(* Predictive pruning: the model-driven race                           *)
(* ------------------------------------------------------------------ *)

(* For each app, run the budget-only race (fresh engine, no store, no
   exhaustive sweep feeding it) and judge it against the ground truth
   the bench-scale sweeps above already computed: the race must recover
   the true optimum while fully simulating no more than 10% of the
   space AND no more than the paper methodology itself measures (one
   minus the Pareto reduction on the same space) — i.e. it prunes at
   least as hard as Table 4, per app.  Then the determinism pin: the
   fitted model, the predicted ranking and the winner are bit-identical
   for jobs=1 and jobs=4. *)

let prune_pairs () =
  [
    ("matmul", Lazy.force matmul_result);
    ("mri", Lazy.force mri_result);
    ("cp", Lazy.force cp_result);
    ("sad", Lazy.force sad_result);
  ]

let prune () =
  section "Predictive pruning: true optimum on a sliver of the space";
  let rules =
    (Tuner.Superopt.discover ~jobs:!jobs ~max_len:1 ~sweep:64 ()).Tuner.Superopt.rules
  in
  printf "rule database: %d rule(s) feeding the rule-win feature\n%!" (List.length rules);
  let race ~jobs ~budget name =
    let e = registry name in
    let cands = e.candidates Bench in
    let spec =
      Tuner.Prune.spec
        ~plan:{ Tuner.Prune.default_plan with Tuner.Prune.pl_budget_frac = budget }
        ~rules
        ~reduced:(Apps.Registry.race_candidates e ~arch:Gpu.Arch.g80 Bench cands)
        ()
    in
    let engine = Tuner.Measure.create ~app_name:name () in
    Tuner.Prune.run ~jobs ~engine ~app_name:name spec cands
  in
  let rows =
    List.map
      (fun (name, (r : Tuner.Search.result)) ->
        (* The tighter of the headline 10% and what the Pareto curve
           itself leaves: the race may never out-spend the methodology
           it claims to sharpen. *)
        let budget = Float.min 0.10 (1.0 -. r.reduction) in
        let t0 = Unix.gettimeofday () in
        let o = race ~jobs:!jobs ~budget name in
        printf "(%s race: %d of %d simulated in %.1fs host time)\n%!" name
          o.Tuner.Prune.pr_simulated o.Tuner.Prune.pr_total
          (Unix.gettimeofday () -. t0);
        (name, r, budget, o))
      (prune_pairs ())
  in
  print_string
    (Tuner.Report.table Tuner.Report.prune_header
       (List.map
          (fun (_, r, _, o) ->
            Tuner.Report.prune_row { r with Tuner.Search.prune = Some o })
          rows));
  printf "\n";
  List.iter
    (fun (name, (r : Tuner.Search.result), _, (o : Tuner.Prune.outcome)) ->
      let frac =
        float_of_int o.Tuner.Prune.pr_simulated /. float_of_int o.Tuner.Prune.pr_total
      in
      check
        (Printf.sprintf "%s: race recovers the true optimum" name)
        (Tuner.Prune.recovered o ~best:r.best);
      check
        (Printf.sprintf "%s: <= 10%% of the space fully simulated" name)
        (frac <= 0.10 +. 1e-9);
      check
        (Printf.sprintf "%s: prunes at least as hard as the Pareto curve" name)
        (1.0 -. frac >= r.reduction -. 1e-9))
    rows;
  (* Determinism: the whole outcome — model coefficients, predicted
     ranking, race winner — is a pure function of the space, not of the
     worker count. *)
  let key (o : Tuner.Prune.outcome) =
    ( Tuner.Predict.digest o.Tuner.Prune.pr_model,
      o.Tuner.Prune.pr_winner.Tuner.Measure.cand.desc,
      o.Tuner.Prune.pr_winner.Tuner.Measure.time_s,
      o.Tuner.Prune.pr_simulated,
      o.Tuner.Prune.pr_probes,
      o.Tuner.Prune.pr_survivors,
      o.Tuner.Prune.pr_ranked )
  in
  let d1 = race ~jobs:1 ~budget:0.10 "matmul" in
  let d4 = race ~jobs:4 ~budget:0.10 "matmul" in
  check "jobs 1 vs 4: model, ranking and winner bit-identical" (key d1 = key d4);
  (* ---- BENCH_prune.json -------------------------------------------- *)
  write_json "BENCH_prune.json"
    Util.Json.(
      Obj
        [
          ("bench", Str "prune");
          ("arch", Str "g80");
          ("jobs", Int !jobs);
          ( "apps",
            List
              (List.map
                 (fun (name, (r : Tuner.Search.result), budget, (o : Tuner.Prune.outcome)) ->
                   Obj
                     [
                       ("app", Str name);
                       ("space", Int o.Tuner.Prune.pr_total);
                       ("budget_frac", Float budget);
                       ("probes", Int (List.length o.Tuner.Prune.pr_probes));
                       ("raced", Int o.Tuner.Prune.pr_raced);
                       ("survivors", Int (List.length o.Tuner.Prune.pr_survivors));
                       ("simulated", Int o.Tuner.Prune.pr_simulated);
                       ( "simulated_frac",
                         Float
                           (float_of_int o.Tuner.Prune.pr_simulated
                           /. float_of_int o.Tuner.Prune.pr_total) );
                       ("pareto_reduction", Float r.reduction);
                       ( "optimum_rank",
                         Int (Option.value (Tuner.Prune.rank_of o r.best.cand.desc) ~default:0) );
                       ("recovered", Bool (Tuner.Prune.recovered o ~best:r.best));
                       ("model", Str (Tuner.Predict.digest o.Tuner.Prune.pr_model));
                     ])
                 rows) );
          ("jobs_bit_identical", Bool (key d1 = key d4));
        ])

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("table3", table3);
    ("table4", table4);
    ("ablation", ablation);
    ("trace", trace);
    ("lint", lint);
    ("bechamel", bechamel);
    ("chaos", chaos);
    ("serve", serve);
    ("chaos_net", chaos_net);
    ("superopt", superopt);
    ("prune", prune);
  ]

let () =
  let rec parse_jobs acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := j
      | _ ->
        printf "--jobs expects a positive integer, got %S\n" n;
        exit 1);
      parse_jobs acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
      | Some j when j >= 1 -> jobs := j
      | _ ->
        printf "--jobs expects a positive integer, got %S\n" a;
        exit 1);
      parse_jobs acc rest
    | a :: rest -> parse_jobs (a :: acc) rest
  in
  let args = parse_jobs [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    if args = [] then List.map fst experiments
    else begin
      List.iter
        (fun a ->
          if not (List.mem_assoc a experiments) then begin
            printf "unknown experiment %S; available: %s\n" a
              (String.concat ", " (List.map fst experiments));
            exit 1
          end)
        args;
      args
    end
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) ()) selected;
  printf "\nTotal harness time: %.1fs\n" (Unix.gettimeofday () -. t0)

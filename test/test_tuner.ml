(* Tests for the paper's contribution: the efficiency/utilization
   metrics (Eqs. 1-2, including the paper's worked example), Pareto
   frontier extraction, and the pruned-search driver. *)

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    t "paper worked example (sec 4): matmul 4k, complete unroll" (fun () ->
        (* Instr = 15150, Regions = 769, Threads = 2^24, W_TB = 8,
           B_SM = 2  =>  Efficiency = 3.93e-12, Utilization ~ 227. *)
        let m =
          Tuner.Metrics.compute ~instr:15150.0 ~regions:769.0
            ~threads:(Float.pow 2.0 24.0) ~warps_per_block:8 ~blocks_per_sm:2
        in
        check_b "efficiency 3.93e-12" true
          (Float.abs ((m.efficiency /. 3.93e-12) -. 1.0) < 0.01);
        check_b "utilization ~227" true (Float.abs (m.utilization -. 227.0) < 1.0));
    t "efficiency halves when instructions double" (fun () ->
        let m i =
          (Tuner.Metrics.compute ~instr:i ~regions:10.0 ~threads:1000.0 ~warps_per_block:4
             ~blocks_per_sm:2)
            .efficiency
        in
        check_b "inverse" true (Float.abs ((m 100.0 /. m 200.0) -. 2.0) < 1e-9));
    t "utilization grows with independent warps" (fun () ->
        let u b =
          (Tuner.Metrics.compute ~instr:100.0 ~regions:10.0 ~threads:1.0 ~warps_per_block:4
             ~blocks_per_sm:b)
            .utilization
        in
        check_b "monotone" true (u 1 < u 2 && u 2 < u 4);
        (* bracket term: (4-1)/2 + (B-1)*4 *)
        check_b "B=1" true (Float.abs (u 1 -. (100.0 /. 10.0 *. 1.5)) < 1e-9);
        check_b "B=2" true (Float.abs (u 2 -. (100.0 /. 10.0 *. 5.5)) < 1e-9));
    t "degenerate inputs give zero, not exceptions" (fun () ->
        let m =
          Tuner.Metrics.compute ~instr:0.0 ~regions:0.0 ~threads:0.0 ~warps_per_block:0
            ~blocks_per_sm:0
        in
        check_b "finite" true (m.efficiency = 0.0 && m.utilization = 0.0));
    t "normalize scales each axis to max 1" (fun () ->
        let ms =
          Tuner.Metrics.
            [
              { efficiency = 1.0; utilization = 50.0 };
              { efficiency = 4.0; utilization = 200.0 };
            ]
        in
        match Tuner.Metrics.normalize ms with
        | [ a; b ] ->
          check_b "a" true (a.efficiency = 0.25 && a.utilization = 0.25);
          check_b "b" true (b.efficiency = 1.0 && b.utilization = 1.0)
        | _ -> Alcotest.fail "length");
  ]

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)
(* ------------------------------------------------------------------ *)

let pt x y = { Tuner.Pareto.x; y }
let coords (p : Tuner.Pareto.point) = (p.x, p.y)

let random_points seed n =
  let rng = Util.Rng.create seed in
  List.init n (fun _ -> pt (Util.Rng.float rng) (Util.Rng.float rng))

(* Duplicates force the cluster-survival paths of the frontier. *)
let random_points_with_dups seed n =
  let rng = Util.Rng.create seed in
  let grid () = float_of_int (Util.Rng.int rng 8) /. 8.0 in
  List.init n (fun _ -> pt (grid ()) (grid ()))

let shuffle seed xs =
  let rng = Util.Rng.create seed in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let pareto_tests =
  [
    t "frontier of a staircase" (fun () ->
        let pts = [ pt 1.0 3.0; pt 2.0 2.0; pt 3.0 1.0; pt 1.5 1.5 ] in
        let f = Tuner.Pareto.frontier_points pts in
        check_i "three survive" 3 (List.length f);
        check_b "dominated point gone" true (not (List.mem (pt 1.5 1.5) f)));
    t "a single point is its own frontier" (fun () ->
        check_i "one" 1 (List.length (Tuner.Pareto.frontier_points [ pt 0.5 0.5 ])));
    t "identical points survive together (paper's clusters)" (fun () ->
        let pts = [ pt 1.0 1.0; pt 1.0 1.0; pt 1.0 1.0; pt 0.5 0.5 ] in
        check_i "cluster kept" 3 (List.length (Tuner.Pareto.frontier_points pts)));
    t "same x, lower y is dominated" (fun () ->
        let f = Tuner.Pareto.frontier_points [ pt 1.0 2.0; pt 1.0 1.0 ] in
        check_b "only the top" true (f = [ pt 1.0 2.0 ]));
    t "empty input" (fun () -> check_i "empty" 0 (List.length (Tuner.Pareto.frontier_points [])));
    t "result preserves input order" (fun () ->
        let pts = [ pt 3.0 1.0; pt 1.0 3.0; pt 2.0 2.0 ] in
        check_b "order" true (Tuner.Pareto.frontier_points pts = pts));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier contains no dominated point (qcheck)" ~count:200
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points seed 60 in
           let f = Tuner.Pareto.frontier_points pts in
           List.for_all (fun p -> not (Tuner.Pareto.is_dominated coords f p)) f));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every excluded point is dominated by the frontier (qcheck)"
         ~count:200
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points seed 60 in
           let f = Tuner.Pareto.frontier_points pts in
           List.for_all
             (fun p -> List.mem p f || Tuner.Pareto.is_dominated coords f p)
             pts));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier includes the max of each axis (qcheck)" ~count:200
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points seed 40 in
           let f = Tuner.Pareto.frontier_points pts in
           let max_by proj =
             List.fold_left (fun a p -> if proj p > proj a then p else a) (List.hd pts) pts
           in
           List.exists (fun p -> p.Tuner.Pareto.x = (max_by (fun p -> p.Tuner.Pareto.x)).x) f
           && List.exists (fun p -> p.Tuner.Pareto.y = (max_by (fun p -> p.Tuner.Pareto.y)).y) f));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantized frontier is a superset of the exact one (qcheck)"
         ~count:200
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points seed 50 in
           let exact = Tuner.Pareto.frontier coords pts in
           let quant = Tuner.Pareto.frontier_quantized ~resolution:0.05 coords pts in
           List.for_all (fun p -> List.mem p quant) exact));
    (* Search-correctness properties (seeded through Util.Rng so every
       run explores the same point sets). *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"no kept point is dominated by ANY input point (qcheck)" ~count:300
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points_with_dups seed 50 in
           let f = Tuner.Pareto.frontier coords pts in
           List.for_all (fun p -> not (Tuner.Pareto.is_dominated coords pts p)) f));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every dropped point is dominated by a kept point (qcheck)"
         ~count:300
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points_with_dups seed 50 in
           let f = Tuner.Pareto.frontier coords pts in
           (* Count multiplicity: a point kept k times leaves n-k drops. *)
           let count x xs = List.length (List.filter (( = ) x) xs) in
           List.for_all
             (fun p ->
               count p pts = count p f || Tuner.Pareto.is_dominated coords f p)
             pts));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantized frontier superset holds on clustered inputs (qcheck)"
         ~count:300
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points_with_dups seed 60 in
           let exact = Tuner.Pareto.frontier coords pts in
           let quant = Tuner.Pareto.frontier_quantized ~resolution:0.05 coords pts in
           List.for_all (fun p -> List.mem p quant) exact));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier is invariant under input permutation (qcheck)" ~count:300
         QCheck.(int_range 0 100000)
         (fun seed ->
           let pts = random_points_with_dups seed 40 in
           let perm = shuffle (seed + 1) pts in
           let sorted l = List.sort compare l in
           sorted (Tuner.Pareto.frontier coords pts)
           = sorted (Tuner.Pareto.frontier coords perm)
           && sorted (Tuner.Pareto.frontier_quantized ~resolution:0.05 coords pts)
              = sorted (Tuner.Pareto.frontier_quantized ~resolution:0.05 coords perm)));
  ]

(* ------------------------------------------------------------------ *)
(* Search driver (on synthetic candidates)                             *)
(* ------------------------------------------------------------------ *)

(* Fabricate a candidate whose metrics and runtime we fully control:
   a one-block dummy kernel plus a closed-form run function. *)
let dummy_kernel =
  Ptx.Prog.make ~name:"dummy" ~params:[] ~smem_words:0 ~lmem_words:0
    [ Ptx.Prog.block "a" [] Ptx.Prog.Ret ]

let fake ~desc ~instr ~regions ~time : Tuner.Candidate.t =
  let base =
    Tuner.Candidate.make ~desc ~params:[] ~kernel:dummy_kernel ~threads_per_block:64
      ~threads_total:6400 ~run:(fun () -> time) ()
  in
  (* override the measured profile with the synthetic one *)
  { base with profile = { base.profile with instr; regions } }

let search_tests =
  [
    t "search keeps an optimum that sits on the frontier" (fun () ->
        (* efficiency ~ 1/instr; utilization ~ instr/regions * const.
           Make the fast config dominate on both axes. *)
        let cands =
          [
            fake ~desc:"good" ~instr:100.0 ~regions:10.0 ~time:1.0;
            fake ~desc:"bad" ~instr:400.0 ~regions:100.0 ~time:4.0;
            fake ~desc:"worse" ~instr:800.0 ~regions:400.0 ~time:8.0;
          ]
        in
        let r = Tuner.Search.run ~app_name:"synthetic" cands in
        check_b "optimum selected" true r.optimum_selected;
        check_b "exact" true r.optimum_exact;
        check_b "best is good" true (r.best.cand.desc = "good"));
    t "search reports reduction and eval-time bookkeeping" (fun () ->
        let cands =
          List.init 20 (fun k ->
              fake
                ~desc:(Printf.sprintf "c%d" k)
                ~instr:(100.0 +. float_of_int (k * 37 mod 200))
                ~regions:(10.0 +. float_of_int (k * 17 mod 50))
                ~time:(1.0 +. float_of_int k))
        in
        let r = Tuner.Search.run ~app_name:"synthetic" cands in
        check_i "space" 20 r.space_size;
        check_b "reduction in [0,1)" true (r.reduction >= 0.0 && r.reduction < 1.0);
        check_b "full eval time = sum" true
          (Float.abs (r.full_eval_time -. (20.0 +. (19.0 *. 20.0 /. 2.0))) < 1e-9);
        check_b "selected time <= full time" true (r.selected_eval_time <= r.full_eval_time));
    t "invalid candidates are excluded but counted" (fun () ->
        let invalid =
          Tuner.Candidate.make ~desc:"huge" ~params:[] ~kernel:dummy_kernel
            ~threads_per_block:1024 ~threads_total:1024
            ~run:(fun () -> 0.1)
            ()
        in
        check_b "flagged invalid" false invalid.valid;
        let r =
          Tuner.Search.run ~app_name:"synthetic"
            [ invalid; fake ~desc:"ok" ~instr:10.0 ~regions:2.0 ~time:1.0 ]
        in
        check_i "valid" 1 r.space_size;
        check_i "invalid" 1 r.invalid);
    t "tune measures only the selected subset" (fun () ->
        (* Atomic: measurement thunks may run on worker domains. *)
        let measured = Atomic.make 0 in
        let counting desc instr regions time =
          let c = fake ~desc ~instr ~regions ~time in
          {
            c with
            run =
              (fun () ->
                Atomic.incr measured;
                time);
          }
        in
        let cands =
          [
            counting "a" 100.0 10.0 1.0;
            counting "b" 1000.0 11.0 9.0;
            (* dominated on both axes *)
            counting "c" 400.0 300.0 5.0;
          ]
        in
        let best, selected = Tuner.Search.tune ~app_name:"synthetic" cands in
        check_b "fewer measurements than space" true (Atomic.get measured = List.length selected);
        check_b "picked the fast one" true (best.cand.desc = "a"));
    t "search measures each candidate exactly once (cache reuse)" (fun () ->
        (* Exhaustive sweep + Pareto subset + best lookups must all hit
           the same cache: one simulator run per candidate, total. *)
        let runs = Atomic.make 0 in
        let cands =
          List.init 12 (fun k ->
              let c =
                fake
                  ~desc:(Printf.sprintf "c%d" k)
                  ~instr:(100.0 +. float_of_int (k * 53 mod 300))
                  ~regions:(10.0 +. float_of_int (k * 29 mod 40))
                  ~time:(1.0 +. float_of_int (k * 7 mod 11))
              in
              { c with run = (fun () -> Atomic.incr runs; c.run ()) })
        in
        let r = Tuner.Search.run ~jobs:1 ~app_name:"synthetic" cands in
        check_i "one run per valid candidate" r.space_size (Atomic.get runs);
        (* The subset's times come from the cache, so summing them can
           never double-count. *)
        check_b "selected <= full" true (r.selected_eval_time <= r.full_eval_time));
    t "measurement cache miss raises instead of silently re-measuring" (fun () ->
        let a = fake ~desc:"a" ~instr:100.0 ~regions:10.0 ~time:1.0 in
        let b = fake ~desc:"b" ~instr:200.0 ~regions:20.0 ~time:2.0 in
        let engine = Tuner.Measure.create ~app_name:"synthetic" () in
        ignore (Tuner.Measure.measure_all ~jobs:1 engine [ a ]);
        check_b "hit" true (Tuner.Measure.time_exn engine a = 1.0);
        check_b "miss is an error" true
          (match Tuner.Measure.time_exn engine b with
          | (_ : float) -> false
          | exception Invalid_argument _ -> true);
        check_i "only one run happened" 1 (Tuner.Measure.runs engine));
    t "measure_all memoizes across calls and within a batch" (fun () ->
        let runs = Atomic.make 0 in
        let c =
          let c0 = fake ~desc:"dup" ~instr:100.0 ~regions:10.0 ~time:3.0 in
          { c0 with run = (fun () -> Atomic.incr runs; 3.0) }
        in
        let engine = Tuner.Measure.create ~app_name:"synthetic" () in
        let m1 = Tuner.Measure.measure_all ~jobs:2 engine [ c; c; c ] in
        let m2 = Tuner.Measure.measure_all ~jobs:2 engine [ c ] in
        check_i "one simulator run" 1 (Atomic.get runs);
        check_i "batch length preserved" 3 (List.length m1);
        check_b "same cached value" true
          (List.for_all (fun (m : Tuner.Search.measured) -> m.time_s = 3.0) (m1 @ m2)));
    ts "parallel search is deterministic: jobs:1 = jobs:4 on the SAD space" (fun () ->
        (* The hard requirement behind ~jobs: parallel and sequential
           runs must produce identical result records.  A reduced SAD
           problem keeps the space's full 648-configuration structure
           while staying test-sized. *)
        let cands = Apps.App.candidates Apps.Sad.app (Apps.Sad.sizes Quick) in
        let r1 = Tuner.Search.run ~jobs:1 ~app_name:"sad-small" cands in
        let r4 = Tuner.Search.run ~jobs:4 ~app_name:"sad-small" cands in
        let descs ms = List.map (fun (m : Tuner.Search.measured) -> m.cand.desc) ms in
        let times ms = List.map (fun (m : Tuner.Search.measured) -> m.time_s) ms in
        let sel_descs sel = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) sel in
        check_i "space_size" r1.space_size r4.space_size;
        check_i "invalid" r1.invalid r4.invalid;
        check_b "exhaustive order and times" true
          (descs r1.exhaustive = descs r4.exhaustive && times r1.exhaustive = times r4.exhaustive);
        check_b "best" true
          (r1.best.cand.desc = r4.best.cand.desc && r1.best.time_s = r4.best.time_s);
        check_b "full_eval_time" true (r1.full_eval_time = r4.full_eval_time);
        check_b "selected set and order" true (sel_descs r1.selected = sel_descs r4.selected);
        check_b "selected measurements (cached)" true
          (descs r1.selected_measured = descs r4.selected_measured
          && times r1.selected_measured = times r4.selected_measured);
        check_b "selected_best" true
          (r1.selected_best.cand.desc = r4.selected_best.cand.desc
          && r1.selected_best.time_s = r4.selected_best.time_s);
        check_b "selected_eval_time" true (r1.selected_eval_time = r4.selected_eval_time);
        check_b "reduction" true (r1.reduction = r4.reduction);
        check_b "optimum flags" true
          (r1.optimum_selected = r4.optimum_selected && r1.optimum_exact = r4.optimum_exact);
        (* And the pruned-only driver agrees with itself, too. *)
        let b1, s1 = Tuner.Search.tune ~jobs:1 ~app_name:"sad-small" cands in
        let b4, s4 = Tuner.Search.tune ~jobs:4 ~app_name:"sad-small" cands in
        check_b "tune best" true (b1.cand.desc = b4.cand.desc && b1.time_s = b4.time_s);
        check_b "tune selection" true (sel_descs s1 = sel_descs s4));
    t "candidate validity mirrors the paper's failure modes" (fun () ->
        let with_smem words =
          Tuner.Candidate.make ~desc:"s" ~params:[]
            ~kernel:
              (Ptx.Prog.make ~name:"d" ~params:[] ~smem_words:words ~lmem_words:0
                 [ Ptx.Prog.block "a" [] Ptx.Prog.Ret ])
            ~threads_per_block:64 ~threads_total:64
            ~run:(fun () -> 0.0)
            ()
        in
        check_b "smem overflow invalid" false (with_smem 5000).valid;
        check_b "modest smem valid" true (with_smem 100).valid);
  ]

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let report_tests =
  [
    t "table aligns columns" (fun () ->
        let s = Tuner.Report.table [ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ] in
        let lines = String.split_on_char '\n' s in
        let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
        check_b "equal widths" true (List.length (List.sort_uniq compare widths) = 1));
    t "scatter marks frontier and optimum distinctly" (fun () ->
        let s =
          Tuner.Report.scatter
            [ (0.1, 0.9, Tuner.Report.Dot); (0.9, 0.1, Front); (0.99, 0.99, Best) ]
        in
        check_b "has dot" true (String.contains s '.');
        check_b "has front" true (String.contains s 'o');
        check_b "has best" true (String.contains s '*'));
    t "series plot renders without data loss at the edges" (fun () ->
        let s =
          Tuner.Report.series_plot ~x_name:"x" ~y_name:"y"
            [ ("s", [ (0.0, 0.0); (1.0, 1.0) ]) ]
        in
        check_b "nonempty" true (String.length s > 0));
    t "series plot copes with empty input" (fun () ->
        check_b "no data" true
          (Tuner.Report.series_plot ~x_name:"x" ~y_name:"y" [] = "(no data)\n"));
  ]

let suite =
  [
    ("tuner.metrics", metrics_tests);
    ("tuner.pareto", pareto_tests);
    ("tuner.search", search_tests);
    ("tuner.report", report_tests);
  ]

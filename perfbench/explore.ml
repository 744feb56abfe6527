(* The two exploration workloads.

   explore-paper: cp and mri at paper scale, each built
   ([entry.candidates]) and explored exhaustively with its Pareto subset
   ([Search.run]), cold, with no store.  The simulator regime.

   sweep-quick: all four apps at quick scale, each built and explored
   with the model-driven race, the quick list racing as its own reduced
   list ([Search.run ~predict]) — what `gpuopt explore APP --quick
   --predict` and the daemon's quick predict-explores do.  The compile
   and fixed-per-launch-cost regime.

   One op is one app's build plus its search.  A pass runs every app
   once, in an order drawn from the workload seed.  A run makes a fixed
   number of passes, one per [w_pass_s] seconds of its time budget, so
   every run does the same work whatever the host's speed.  All
   measurement is at [~jobs:1]. *)

type workload = {
  w_name : string;
  w_scale : string;
  w_apps : string list;
  w_pass_s : int;  (* budget seconds per pass; a pass takes a little less *)
}

let explore_paper = { w_name = "explore-paper"; w_scale = "paper"; w_apps = [ "cp"; "mri" ]; w_pass_s = 22 }

let sweep_quick =
  { w_name = "sweep-quick"; w_scale = "quick"; w_apps = [ "matmul"; "cp"; "sad"; "mri" ]; w_pass_s = 7 }

let passes_for (w : workload) ~seconds = max 1 (seconds / w.w_pass_s)

(* One simulator thunk's host cost, recorded by the traced wrapper. *)
type launch = {
  host_s : float;
  winstrs : int;
  launches : int;
  race : bool;  (* a reduced-list (race rung) thunk *)
  dup : bool;  (* this desc was already simulated in the same op *)
}

type op = {
  app : string;
  latency_s : float;
  op_cpu_s : float;
  cands : Tuner.Candidate.t list;
  result : (Tuner.Search.result, string) result;
}

type pass = { wall_s : float; cpu_s : float; ops : op list }

let launches : launch list ref = ref []

(* Time every call of a candidate's simulator thunk (which includes the
   app's [Gpu.Device] clone) as a Gpu.Sim span, and count the launches
   and warp-instructions it issued.  Jobs is 1, so the simulator's
   global counters belong to this thunk alone. *)
let wrap ~race ~(seen : (string, unit) Hashtbl.t) (c : Tuner.Candidate.t) : Tuner.Candidate.t =
  let run () =
    let l0 = Gpu.Sim.sim_runs () and w0 = Gpu.Sim.warp_instrs_issued () in
    let t0 = Trace.now () in
    let t = Trace.span ~layer:"Gpu.Sim" (if race then "race" else "simulate") c.run in
    let host_s = Trace.now () -. t0 in
    let dup = Hashtbl.mem seen c.desc in
    Hashtbl.replace seen c.desc ();
    launches :=
      {
        host_s;
        winstrs = Gpu.Sim.warp_instrs_issued () - w0;
        launches = Gpu.Sim.sim_runs () - l0;
        race;
        dup;
      }
      :: !launches;
    t
  in
  { c with run }

let run_op (w : workload) ~(op : int) (app : string) : op =
  let cpu0 = Proc.self_cpu_s () and t0 = Trace.now () in
  let built = ref [] in
  let result =
    Trace.span ~op ~layer:"bench" ("op " ^ app) (fun () ->
        try
          let cands =
            Trace.span ~layer:"Tuner.Pipeline" "build" (fun () ->
                Expected.candidates ~scale:w.w_scale app)
          in
          built := cands;
          let seen = Hashtbl.create 1024 in
          let traced race = if !Trace.enabled then List.map (wrap ~race ~seen) cands else cands in
          let measured = traced false in
          let predict =
            if w.w_scale = "quick" then Some (Tuner.Prune.spec ~reduced:(traced true) ()) else None
          in
          Ok
            (Trace.span ~layer:"Tuner.Search" "Search.run" (fun () ->
                 Tuner.Search.run ~jobs:1 ?predict ~app_name:app measured))
        with e -> Error (Printexc.to_string e))
  in
  let latency_s = Trace.now () -. t0 in
  { app; latency_s; op_cpu_s = Proc.self_cpu_s () -. cpu0; cands = !built; result }

let run_pass (w : workload) ~(first_op : int) (order : string list) : pass =
  let cpu0 = Proc.self_cpu_s () and t0 = Trace.now () in
  let ops = List.mapi (fun i app -> run_op w ~op:(first_op + i) app) order in
  { wall_s = Trace.now () -. t0; cpu_s = Proc.self_cpu_s () -. cpu0; ops }

let shuffle rng (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

(* Why an op failed, or [] when its result matches the pins exactly and
   its Pareto and race winners pass the CPU reference. *)
let failures (pins : Expected.pin list) (w : workload) (o : op) : string list =
  match o.result with
  | Error e -> [ o.app ^ ": exception " ^ e ]
  | Ok r ->
    let got = Expected.of_result ~scale:w.w_scale ~arch:"g80" r in
    let pinned =
      match Expected.find pins ~scale:w.w_scale ~arch:"g80" ~app:o.app with
      | None -> [ "no pin" ]
      | Some want -> Expected.diff ~want ~got
    in
    let winners =
      r.selected_best.cand.desc
      :: (match r.prune with Some p -> [ p.pr_winner.cand.desc ] | None -> [])
    in
    let invalid =
      List.filter_map
        (fun d -> if Expected.validate o.app d then None else Some ("winner fails CPU reference: " ^ d))
        winners
    in
    List.map (fun m -> o.app ^ ": " ^ m) (pinned @ invalid @ if r.faults <> [] then [ "faults" ] else [])

let ok_results (ops : op list) : Tuner.Search.result list =
  List.filter_map (fun o -> Result.to_option o.result) ops

(* Worst (chosen simulated time / exhaustive optimum) over the ops. *)
let worst_ratio (chosen : Tuner.Search.result -> float option) (ops : op list) : float option =
  List.fold_left
    (fun acc (r : Tuner.Search.result) ->
      match chosen r with
      | Some t ->
        let q = t /. r.best.time_s in
        Some (match acc with Some a -> Float.max a q | None -> q)
      | None -> acc)
    None (ok_results ops)

let pareto_time (r : Tuner.Search.result) = Some r.selected_best.time_s

let race_time (r : Tuner.Search.result) =
  Option.map (fun (p : Tuner.Prune.outcome) -> p.pr_winner.time_s) r.prune

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * (Harness.value * string)) list;
}

let ms x = x *. 1000.0

let report_failures (fails : string list) =
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) fails

let check_ops pins w (ops : op list) : int * int =
  let per_op = List.map (failures pins w) ops in
  List.iter report_failures per_op;
  (List.length ops, List.length (List.filter (fun f -> f <> []) per_op))

(* What the end-to-end metrics keep of an op once it is checked.  The
   candidates and results are dropped and the heap compacted before the
   next op starts, so every op starts from the same heap and the peak
   resident set is that of the largest op, whatever the app order. *)
type summary = {
  s_latency : float;
  s_cpu : float;
  s_failed : bool;
  s_pareto : float option;
  s_race : float option;
}

let summarize pins w (o : op) : summary =
  let _, failed = check_ops pins w [ o ] in
  let s =
    {
      s_latency = o.latency_s;
      s_cpu = o.op_cpu_s;
      s_failed = failed > 0;
      s_pareto = worst_ratio pareto_time [ o ];
      s_race = worst_ratio race_time [ o ];
    }
  in
  Gc.compact ();
  s

let end_to_end ~pins ~(w : workload) ~seed ~seconds ~setup_s : outcome =
  let rng = Util.Rng.create seed in
  (* A pass's wall and CPU time are the sums over its ops; the checks
     between ops are not timed. *)
  let pass first_op =
    List.mapi (fun i app -> summarize pins w (run_op w ~op:(first_op + i) app)) (shuffle rng w.w_apps)
  in
  let wall p = List.fold_left (fun a s -> a +. s.s_latency) 0.0 p in
  let passes = List.init (passes_for w ~seconds) (fun k -> pass (k * 10)) in
  let ops = List.concat passes in
  let timed_s = wall ops in
  let lat = List.map (fun s -> ms s.s_latency) ops in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun s -> s.s_failed) ops) in
  let worst get =
    List.fold_left
      (fun a s -> match (a, get s) with Some x, Some y -> Some (Float.max x y) | None, v | v, None -> v)
      None ops
  in
  let tail = Option.get (Harness.tail lat) in
  (* The median op latency of each pass, then the median over passes:
     op latencies differ several-fold between apps, so a median over
     all ops of a four-app run would fall between two apps' samples. *)
  let p50 =
    Harness.median (List.map (fun p -> Harness.median (List.map (fun s -> ms s.s_latency) p)) passes)
  in
  let pareto = Option.value (worst (fun s -> s.s_pareto)) ~default:Float.nan in
  let race = Option.value (worst (fun s -> s.s_race)) ~default:pareto in
  Printf.printf "%s: %d op(s) in %d pass(es) of %s s; op latency tail p%g of %d (%d beyond)\n"
    w.w_name attempted (List.length passes)
    (String.concat "/" (List.map (fun p -> Printf.sprintf "%.3f" (wall p)) passes))
    tail.pct tail.n tail.beyond;
  let f x = Harness.F x in
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", (f setup_s, "s"));
        ("wall_s", (f (Harness.median (List.map wall passes)), "s"));
        ( "cpu_s",
          (f (Harness.median (List.map (List.fold_left (fun a s -> a +. s.s_cpu) 0.0) passes)), "s") );
        ("peak_rss_mb", (f (Option.value (Proc.peak_rss_mb `Self) ~default:Float.nan), "MB"));
        ("ok_frac", (f (float_of_int (attempted - failed) /. float_of_int attempted), "ratio"));
        ("pareto_ratio", (f pareto, "ratio"));
        ("race_ratio", (f race, "ratio"));
        ("req_per_s", (f (float_of_int attempted /. timed_s), "1/s"));
        ("warm_p50_ms", (f p50, "ms"));
        ("warm_tail_ms", (f tail.value, "ms"));
        ("cold_p50_ms", (f p50, "ms"));
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* Per-stage compile times from the pipeline's own [?hook] stats, and
   the cost of per-stage verification, over every config of [app]
   through [entry.compile].  A hooked compile also allocates registers
   after every stage, so the verification cost comes from separate
   unhooked compiles, verified and unverified in turn per config. *)
let stage_times (app : string) : (string * float) list * float =
  let e = Expected.entry app in
  let descs = Lazy.force e.configs in
  let by_layer = Hashtbl.create 8 in
  let hook (s : Tuner.Pipeline.stat) =
    let l = Tuner.Pipeline.layer_name s.layer in
    Hashtbl.replace by_layer l
      (s.elapsed_s +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.0)
  in
  List.iter (fun d -> ignore (e.compile ~verify:false ~hook d)) descs;
  let compile verify d = fst (Trace.time (fun () -> ignore (e.compile ~verify d))) in
  let verify_s = sum (fun d -> compile true d -. compile false d) descs in
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [], verify_s)

let per_layer ~pins ~(w : workload) ~seed : outcome =
  let rng = Util.Rng.create seed in
  let order = shuffle rng w.w_apps in
  let plain = run_pass w ~first_op:0 order in
  launches := [];
  Trace.reset ();
  Trace.enabled := true;
  let gc0 = Gc.quick_stat () in
  let traced = run_pass w ~first_op:100 order in
  let gc1 = Gc.quick_stat () in
  Trace.enabled := false;
  let spans = Trace.spans () in
  let attempted, failed = check_ops pins w (plain.ops @ traced.ops) in
  let self = Trace.self_times spans in
  Printf.printf "\nper-layer self time, traced pass (%.3f s wall):\n%s" traced.wall_s
    (Trace.self_table self);
  let self_of l = Option.value (List.assoc_opt l self) ~default:0.0 in
  let total_self = sum snd self in
  let results = ok_results traced.ops in
  let ls = !launches in
  let n_launch = isum (fun l -> l.launches) ls in
  let winstrs = isum (fun l -> l.winstrs) ls in
  let busy = sum (fun l -> l.host_s) ls in
  let fixed_ms, ns_per =
    match Harness.fit (List.map (fun l -> (float_of_int l.winstrs, l.host_s)) ls) with
    | Some (a, b) -> (a *. 1000.0, b *. 1e9)
    | None -> (Float.nan, Float.nan)
  in
  let dups = List.length (List.filter (fun l -> l.dup) ls) in
  (* Direct calls, outside the timed pass. *)
  let stages = List.map stage_times w.w_apps in
  let stage l = sum (fun (st, _) -> Option.value (List.assoc_opt l st) ~default:0.0) stages in
  let pareto_s =
    sum
      (fun (r : Tuner.Search.result) ->
        fst
          (Trace.time (fun () ->
               Tuner.Pareto.frontier_quantized
                 (fun (_, (m : Tuner.Metrics.t)) -> (m.efficiency, m.utilization))
                 r.all)))
      results
  in
  let selected = isum (fun (r : Tuner.Search.result) -> List.length r.selected) results in
  let survivors = isum (fun (r : Tuner.Search.result) -> List.length r.exhaustive) results in
  let prunes = List.filter_map (fun (r : Tuner.Search.result) -> Option.map (fun p -> (r, p)) r.prune) results in
  let features_s, fit_s =
    List.fold_left
      (fun (fa, fb) ((r : Tuner.Search.result), (p : Tuner.Prune.outcome)) ->
        let valid = List.map fst r.all in
        let tf, feats = Trace.time (fun () -> List.map (fun c -> (c.Tuner.Candidate.desc, Tuner.Predict.of_candidate c)) valid) in
        let time_of d = List.find_map (fun (m : Tuner.Search.measured) -> if m.cand.desc = d then Some m.time_s else None) r.exhaustive in
        let rows =
          List.filter_map
            (fun d ->
              match time_of d with
              | Some t when t > 0.0 -> Some (List.assoc d feats, Float.log t)
              | _ -> None)
            p.pr_probes
        in
        let tfit, _ = Trace.time (fun () -> Tuner.Predict.fit rows) in
        (fa +. tf, fb +. tfit))
      (0.0, 0.0) prunes
  in
  let cands = List.concat_map (fun o -> o.cands) traced.ops in
  let file =
    Printf.sprintf ".perfbench/trace-%s-%d.json" w.w_name seed
  in
  Trace.write_chrome file spans;
  Printf.printf "chrome trace: %s (%d spans)\n" file (List.length spans);
  let f x = (Harness.F x, "s") and c n = (Harness.I n, "count") and r x = (Harness.F x, "ratio") in
  let share l = r (self_of l /. total_self) in
  {
    attempted;
    failed;
    metrics =
      [
        ("pipeline.build_s", f (self_of "Tuner.Pipeline"));
        ("pipeline.kernels", c (List.length cands));
        ("pipeline.kir_s", f (stage "kir"));
        ("pipeline.lower_s", f (stage "lower"));
        ("pipeline.ptx_opt_s", f (stage "ptx"));
        ("pipeline.characterize_s", f (stage "characterize"));
        ("pipeline.verify_s", f (sum snd stages));
        ( "ptx.static_instrs",
          c (isum (fun (c : Tuner.Candidate.t) -> Ptx.Prog.static_size c.kernel) cands) );
        ("sim.launches", c n_launch);
        ("sim.warp_instrs", c winstrs);
        ("sim.busy_s", f busy);
        ("sim.winstr_per_s", (Harness.F (float_of_int winstrs /. busy), "1/s"));
        ( "sim.launch_p50_ms",
          (Harness.F (Harness.median (List.map (fun l -> ms l.host_s) ls)), "ms") );
        ("sim.fixed_ms", (Harness.F fixed_ms, "ms"));
        ("sim.ns_per_winstr", (Harness.F ns_per, "ns"));
        ("measure.runs", c (isum (fun (r : Tuner.Search.result) -> r.engine.measure_runs) results));
        ("measure.hits", c (isum (fun (r : Tuner.Search.result) -> r.engine.measure_hits) results));
        ("measure.dup_runs", c dups);
        ("measure.useful_ratio", r (float_of_int (List.length ls - dups) /. float_of_int (List.length ls)));
        ("pareto.s", f pareto_s);
        ("pareto.selected", c selected);
        ("pareto.reduction", r (1.0 -. (float_of_int selected /. float_of_int survivors)));
        ("prune.race_s", f (sum (fun l -> if l.race then l.host_s else 0.0) ls));
        ("prune.raced", c (isum (fun (_, (p : Tuner.Prune.outcome)) -> p.pr_raced) prunes));
        ("prune.simulated", c (isum (fun (_, (p : Tuner.Prune.outcome)) -> p.pr_simulated) prunes));
        ("predict.features_s", f features_s);
        ("predict.fit_s", f fit_s);
        ("gc.minor_mwords", (Harness.F ((gc1.minor_words -. gc0.minor_words) /. 1e6), "Mwords"));
        ("gc.major_collections", c (gc1.major_collections - gc0.major_collections));
        ( "gc.top_heap_mb",
          (Harness.F (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0), "MB") );
        ("self.sim_s", f (self_of "Gpu.Sim"));
        ("self.pipeline_s", f (self_of "Tuner.Pipeline"));
        ("self.search_s", f (self_of "Tuner.Search"));
        ("self.bench_s", f (self_of "bench"));
        ("share.sim", share "Gpu.Sim");
        ("share.pipeline", share "Tuner.Pipeline");
        ("share.search", share "Tuner.Search");
        ("trace.coverage", r ((total_self -. self_of "bench") /. traced.wall_s));
        ("trace.overhead_s", f (traced.wall_s -. plain.wall_s));
        ("trace.spans", c (List.length spans));
      ];
  }

(* gpuopt — command-line interface to the optimization-space pruning
   toolkit.

     gpuopt arch [NAME]          print one machine model (Tables 1-2)
     gpuopt archs                list the machine-model registry
     gpuopt explore <app>        exhaustive vs pruned search, one app
     gpuopt tune <app>           pruned-only search (the methodology)
     gpuopt predict <app>        model-driven race: probe, fit, rank, halve
     gpuopt inspect <app>        optimization space; --trace one config
     gpuopt lint <app>           static memory-access analysis
     gpuopt compile <file.mcu>   minicuda -> PTX, resources, profile
     gpuopt run <file.mcu> ...   compile and simulate a kernel
     gpuopt chaos <app>          fault-injection self-test of the tuner
     gpuopt serve                tuning-service daemon (store-backed)
     gpuopt request <verb> ...   send one request to a running daemon

   Applications come from the registry (Apps.Registry.all): matmul,
   cp, sad, mri. *)

open Cmdliner

let app_conv =
  let parse s =
    match Apps.Registry.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown app %S (expected %s)" s
             (String.concat "|" Apps.Registry.names)))
  in
  Arg.conv (parse, fun fmt (e : Apps.Registry.entry) -> Format.pp_print_string fmt e.name)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Application to search")

let quick_arg =
  let doc = "Use a tiny problem size (smoke test) instead of the paper-scale one." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let stats_arg =
  let doc =
    "Print measurement-engine statistics: simulator runs vs cache hits, and simulator throughput \
     (warp instructions per host second)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* [--quick] selects the smoke-test scale. *)
let scale_of quick = if quick then Apps.App.Quick else Apps.App.Paper

(* The open store, if any, together with the keys of [cands]: [e]'s
   space at [scale] (the same keys the serve daemon uses). *)
let bound store (e : Apps.Registry.entry) scale cands : Tuner.Measure.store_binding option =
  Option.map
    (fun st ->
      {
        Tuner.Measure.sb_store = st;
        sb_key = Tuner.Store.keys ~app_name:e.name ~scale:(Apps.App.scale_tag scale) cands;
      })
    store

(* Shared by explore/tune: append the verified peephole pass, built from
   a (store-cached) superoptimizer discovery run on the target arch. *)
let rules_flag =
  let doc =
    "Append the superoptimizer's verified peephole pass to every candidate's schedule.  The \
     rule database is discovered for the target arch (and cached in $(b,--store) when given)."
  in
  Arg.(value & flag & info [ "rules" ] ~doc)

(* The rule database itself (explore/tune wrap it into a pipeline pass;
   the predictor also feeds it to the rule-win feature). *)
let rules_db ?store ~jobs rules_on (arch : Gpu.Arch.t) : Ptx.Patterns.rule list option =
  if not rules_on then None
  else begin
    let r = Tuner.Superopt.discover_cached ?store ~jobs ~arch () in
    Printf.printf "peephole: %d verified rule(s)%s, db %s\n"
      (List.length r.Tuner.Superopt.rules)
      (if r.Tuner.Superopt.cached then " (from store)" else "")
      (Ptx.Patterns.digest r.Tuner.Superopt.rules);
    Some r.Tuner.Superopt.rules
  end

let rules_extra ?store ~jobs rules_on (arch : Gpu.Arch.t) :
    Tuner.Pipeline.ptx_pass list option =
  Option.map
    (fun rs -> [ Tuner.Pipeline.peephole rs ])
    (rules_db ?store ~jobs rules_on arch)

(* Shared by explore/predict: the model-driven race's full-simulation
   budget, as a percentage of the valid space. *)
let budget_arg =
  let doc =
    "Full-simulation budget of the model-driven race, as a percentage of the valid space \
     (default 10).  The race fully simulates at most this many candidates — probes plus \
     survivors — and races the rest at the reduced launch shape."
  in
  let pct =
    let parse s =
      match int_of_string_opt s with
      | Some p when p >= 1 && p <= 100 -> Ok p
      | _ -> Error (`Msg (Printf.sprintf "expected a percentage in 1..100, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some pct) None & info [ "budget" ] ~docv:"PCT" ~doc)

let budget_frac = Option.map (fun pct -> float_of_int pct /. 100.0)

let print_prune_outcome (r : Tuner.Search.result) =
  match r.Tuner.Search.prune with
  | None -> ()
  | Some o ->
    Printf.printf "\nmodel-driven race (%d full simulations budgeted of %d):\n" o.Tuner.Prune.pr_budget
      o.Tuner.Prune.pr_total;
    print_string (Tuner.Report.prune_table r);
    Printf.printf "race winner:    %s  (%.4f ms)\n" o.Tuner.Prune.pr_winner.Tuner.Measure.cand.desc
      (o.Tuner.Prune.pr_winner.Tuner.Measure.time_s *. 1000.0);
    Printf.printf "model %s fit on %d probe(s)\n"
      (Tuner.Predict.digest o.Tuner.Prune.pr_model)
      o.Tuner.Prune.pr_model.Tuner.Predict.md_rows

(* Shared by explore/tune/lint/request: which machine model to target.
   The registry names plus "all" (explore/tune only: sweep every
   registry arch and report a per-arch winner table). *)
let arch_name_arg =
  let doc =
    "Target machine model, by registry name (see $(b,gpuopt archs)).  $(b,all) sweeps every \
     registry model and reports a per-arch winner table."
  in
  Arg.(value & opt string Gpu.Arch.g80.Gpu.Arch.name & info [ "arch" ] ~docv:"NAME" ~doc)

let resolve_arch name : Gpu.Arch.t =
  match Gpu.Arch.find name with
  | Some a -> a
  | None ->
    Printf.eprintf "unknown arch %S (expected %s)\n" name
      (String.concat "|" (Gpu.Arch.names @ [ "all" ]));
    exit 2

let winner_line (arch : Gpu.Arch.t) (m : Tuner.Search.measured) =
  Printf.printf "winner[%s] %s  (%.4f ms)\n" arch.Gpu.Arch.name m.cand.desc (m.time_s *. 1000.0)

(* Shared by explore/tune: an optional content-addressed result store,
   the same file format the serve daemon uses, so one-shot CLI sweeps
   and the service share measurements. *)
let store_arg =
  let doc =
    "Back measurements with the content-addressed result store in $(docv) (created if absent): \
     points already present are answered from disk, new measurements are appended as they land, \
     so a sweep interrupted partway resumes where it stopped when re-run with the same file.  \
     The same file drives $(b,gpuopt serve)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

let with_store store_file (f : Tuner.Store.t option -> 'a) : 'a =
  match store_file with
  | None -> f None
  | Some file ->
    let store = Tuner.Store.open_ ~file () in
    List.iter
      (fun (c : Tuner.Store.corrupt_line) ->
        Printf.eprintf "store: %s:%d rejected: %s\n%!" file c.cl_line c.cl_reason)
      (Tuner.Store.corrupt_entries store);
    Fun.protect ~finally:(fun () -> Tuner.Store.close store) (fun () -> f (Some store))

let jobs_arg =
  let doc =
    "Measurement worker domains. Defaults to the GPUOPT_JOBS environment variable if set, else \
     one less than the available cores (min 1). Results are identical for every value."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt positive_int (Util.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)

let arch_cmd =
  let doc =
    "Print one machine model from the registry (default: the paper's GeForce 8800, Tables 1-2)."
  in
  let name_arg =
    Arg.(
      value
      & pos 0 string Gpu.Arch.g80.Gpu.Arch.name
      & info [] ~docv:"NAME" ~doc:"Machine model to print (see $(b,gpuopt archs)).")
  in
  let run name =
    let a = resolve_arch name in
    let l = a.Gpu.Arch.limits and lat = a.Gpu.Arch.latencies in
    Printf.printf "%s — %s\n\n" a.Gpu.Arch.name a.Gpu.Arch.display;
    if a.Gpu.Arch.name = Gpu.Arch.g80.Gpu.Arch.name then begin
      print_string
        (Tuner.Report.table
           [ "Memory"; "Location"; "Size"; "Latency"; "RO" ]
           (List.map
              (fun (m : Gpu.Arch.memory_row) ->
                [ m.mem_name; m.location; m.size; m.latency; (if m.read_only then "yes" else "no") ])
              Gpu.Arch.memories));
      Printf.printf "\n"
    end;
    print_string
      (Tuner.Report.table
         [ "Constraint"; "Limit" ]
         [
           [ "SMs"; string_of_int l.num_sms ];
           [ "Threads per SM"; string_of_int l.max_threads_per_sm ];
           [ "Thread blocks per SM"; string_of_int l.max_blocks_per_sm ];
           [ "32-bit registers per SM"; string_of_int l.regs_per_sm ];
           [ "Shared memory per SM (bytes)"; string_of_int l.smem_per_sm ];
           [ "Threads per block"; string_of_int l.max_threads_per_block ];
           [ "Shared-memory banks"; string_of_int a.Gpu.Arch.shared_banks ];
           [ "Issue latency (cycles)"; string_of_int lat.issue ];
           [ "Global latency (cycles)"; string_of_int lat.global ];
         ]);
    Printf.printf "\nPeak %.1f GFLOPS, %.1f GB/s global bandwidth, %.2f GHz\n"
      (Gpu.Arch.peak_gflops a) a.Gpu.Arch.global_bandwidth_gbs a.Gpu.Arch.clock_ghz
  in
  Cmd.v (Cmd.info "arch" ~doc) Term.(const run $ name_arg)

let archs_cmd =
  let doc = "List the machine-model registry, one line per arch." in
  let run () =
    print_string
      (Tuner.Report.table
         [ "Name"; "Description"; "SMs"; "Banks"; "GHz"; "GFLOPS"; "GB/s" ]
         (List.map
            (fun (a : Gpu.Arch.t) ->
              [
                a.Gpu.Arch.name;
                a.Gpu.Arch.display;
                string_of_int a.Gpu.Arch.limits.num_sms;
                string_of_int a.Gpu.Arch.shared_banks;
                Printf.sprintf "%.2f" a.Gpu.Arch.clock_ghz;
                Printf.sprintf "%.1f" (Gpu.Arch.peak_gflops a);
                Printf.sprintf "%.1f" a.Gpu.Arch.global_bandwidth_gbs;
              ])
            Gpu.Arch.archs))
  in
  Cmd.v (Cmd.info "archs" ~doc) Term.(const run $ const ())

let explore_cmd =
  let doc =
    "Exhaustively measure an application's optimization space, then compare against the \
     Pareto-pruned search (paper Table 4 / Figure 6)."
  in
  let fail_fast_arg =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Abort the sweep on the first measurement fault instead of recording it and \
             searching over the survivors.")
  in
  let predict_flag =
    let doc =
      "Also run the model-driven race: fit a ridge predictor on a seeded probe set, rank the \
       whole space by predicted runtime, race the top of the ranking at the reduced (quick) \
       launch shape, and fully simulate only the survivors (see $(b,--budget)).  Reported \
       next to the Pareto pruning, with whether the race recovered the true optimum."
    in
    Arg.(value & flag & info [ "predict" ] ~doc)
  in
  let run (e : Apps.Registry.entry) jobs quick stats fail_fast store_file arch_name rules predict
      budget =
    if arch_name = "all" then begin
      if predict then begin
        Printf.eprintf "explore: --predict races one space at a time; not supported with --arch all\n";
        exit 2
      end;
      (* Cross-arch sweep: arch is the outer enumeration axis; one
         engine (and store binding) per arch, then the per-arch winner
         table and greppable winner lines. *)
      let rs =
        with_store store_file (fun store ->
            Tuner.Search.run_archs ~jobs ~fail_fast ~app_name:e.name ~archs:Gpu.Arch.archs
              (fun arch ->
                let cands =
                  e.candidates ~arch ?extra_ptx:(rules_extra ?store ~jobs rules arch) (scale_of quick)
                in
                (cands, bound store e (scale_of quick) cands)))
      in
      print_string (Tuner.Report.arch_winner_table rs);
      Printf.printf "\n";
      List.iter
        (fun (r : Tuner.Search.arch_result) ->
          winner_line r.ar_arch r.ar_result.Tuner.Search.selected_best)
        rs;
      exit 0
    end;
    let arch = resolve_arch arch_name in
    let r =
      try
        with_store store_file (fun store ->
            let db = rules_db ?store ~jobs rules arch in
            let extra_ptx = Option.map (fun rs -> [ Tuner.Pipeline.peephole rs ]) db in
            let cands = e.candidates ~arch ?extra_ptx (scale_of quick) in
            let pspec =
              if not predict then None
              else
                let reduced =
                  Apps.Registry.race_candidates e ~arch ?extra_ptx (scale_of quick) cands
                in
                Some
                  (Tuner.Prune.spec ~rules:(Option.value db ~default:[]) ~reduced ())
            in
            Tuner.Search.run ~jobs ~fail_fast ?store:(bound store e (scale_of quick) cands)
              ?predict:pspec ?budget_frac:(budget_frac budget) ~app_name:e.name cands)
      with
      | Tuner.Fault.Fail { desc; fault } ->
        Printf.eprintf "fault in %s: %s\n" desc (Tuner.Fault.to_string fault);
        exit 1
    in
    Printf.printf "%d valid configurations (%d invalid)\n\n" r.space_size r.invalid;
    print_string (Tuner.Report.figure6 r);
    Printf.printf "\n";
    print_string (Tuner.Report.table Tuner.Report.table4_header [ Tuner.Report.table4_row r ]);
    print_prune_outcome r;
    Printf.printf "\ntrue optimum:   %s  (%.4f ms)\n" r.best.cand.desc (r.best.time_s *. 1000.0);
    Printf.printf "pruned search:  %s  (%.4f ms)\n" r.selected_best.cand.desc
      (r.selected_best.time_s *. 1000.0);
    winner_line arch r.selected_best;
    if r.faults <> [] then begin
      Printf.printf "\n%d configuration(s) faulted and were excluded:\n"
        (List.length r.faults);
      print_string (Tuner.Report.fault_table r.faults)
    end;
    if stats then begin
      let s = r.engine in
      let requests = s.measure_runs + s.measure_hits in
      Printf.printf "\nmeasurement engine: %d requests -> %d simulator runs + %d cache hits\n"
        requests s.measure_runs s.measure_hits;
      Printf.printf "                    (the Pareto subset re-reads the exhaustive sweep's cache)\n";
      Printf.printf "simulator:          %d launches, %d warp-instrs in %.2fs host time" s.sim_launches
        s.sim_warp_instrs s.measure_host_s;
      if s.measure_host_s > 0.0 then
        Printf.printf " (%.2f M warp-instrs/s)" (float_of_int s.sim_warp_instrs /. s.measure_host_s /. 1e6);
      Printf.printf "\n";
      if store_file <> None then
        Printf.printf "result store:       %d hit(s), %d miss(es)\n" s.store_hits s.store_misses
    end
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ app_arg $ jobs_arg $ quick_arg $ stats_arg $ fail_fast_arg $ store_arg
      $ arch_name_arg $ rules_flag $ predict_flag $ budget_arg)

let predict_cmd =
  let doc =
    "Run the model-driven race alone, without the exhaustive sweep: measure a seeded probe \
     set, fit the ridge runtime predictor on it, rank the whole space by prediction, race the \
     top of the ranking at the reduced launch shape, and fully simulate only the survivors.  \
     Prints the fitted model (standardized weights, largest first), the head of the predicted \
     ranking, and the winner.  Unlike $(b,gpuopt explore --predict) this never measures the \
     rest of the space, so it cannot say whether the winner is the true optimum — it is the \
     production mode the budget buys."
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows of the predicted ranking (and model weights) to print.")
  in
  let run (e : Apps.Registry.entry) jobs quick store_file arch_name rules budget top =
    let arch = resolve_arch arch_name in
    with_store store_file (fun store ->
        let db = rules_db ?store ~jobs rules arch in
        let extra_ptx = Option.map (fun rs -> [ Tuner.Pipeline.peephole rs ]) db in
        let cands = e.candidates ~arch ?extra_ptx (scale_of quick) in
        let reduced = Apps.Registry.race_candidates e ~arch ?extra_ptx (scale_of quick) cands in
        let plan =
          match budget_frac budget with
          | None -> Tuner.Prune.default_plan
          | Some f -> { Tuner.Prune.default_plan with Tuner.Prune.pl_budget_frac = f }
        in
        let spec =
          Tuner.Prune.spec ~plan ~rules:(Option.value db ~default:[]) ~reduced ()
        in
        let engine = Tuner.Measure.create ~app_name:e.name () in
        Option.iter (Tuner.Measure.attach_store engine) (bound store e (scale_of quick) cands);
        let o =
          try
            Tuner.Prune.run ~jobs ~engine ~app_name:e.name spec cands
          with Tuner.Fault.Fail { desc; fault } ->
            Printf.eprintf "fault in %s: %s\n" desc (Tuner.Fault.to_string fault);
            exit 1
        in
        Printf.printf "%d valid configurations; budget %d full simulation(s) (%.1f%%)\n"
          o.Tuner.Prune.pr_total o.Tuner.Prune.pr_budget
          (100.0 *. float_of_int o.Tuner.Prune.pr_budget /. float_of_int o.Tuner.Prune.pr_total);
        Printf.printf "probes (%d): %s\n" (List.length o.Tuner.Prune.pr_probes)
          (String.concat ", " o.Tuner.Prune.pr_probes);
        Printf.printf "\nmodel %s fit on %d probe(s); strongest standardized weights:\n"
          (Tuner.Predict.digest o.Tuner.Prune.pr_model)
          o.Tuner.Prune.pr_model.Tuner.Predict.md_rows;
        List.iteri
          (fun i (name, w) ->
            if i < top then Printf.printf "  %-20s %+.4f\n" name w)
          (Tuner.Predict.weight_table o.Tuner.Prune.pr_model);
        Printf.printf "\npredicted ranking (top %d of %d):\n" (min top o.Tuner.Prune.pr_total)
          o.Tuner.Prune.pr_total;
        List.iteri
          (fun i (desc, pred_s) ->
            if i < top then Printf.printf "  %2d. %-28s %.4f ms predicted\n" (i + 1) desc (pred_s *. 1000.0))
          o.Tuner.Prune.pr_ranked;
        Printf.printf
          "\nraced %d at the reduced shape (%d without a reduced twin); %d survivor(s): %s\n"
          o.Tuner.Prune.pr_raced o.Tuner.Prune.pr_reduced_missing
          (List.length o.Tuner.Prune.pr_survivors)
          (String.concat ", " o.Tuner.Prune.pr_survivors);
        Printf.printf "fully simulated %d of %d (%.1f%%)\n" o.Tuner.Prune.pr_simulated
          o.Tuner.Prune.pr_total
          (100.0 *. float_of_int o.Tuner.Prune.pr_simulated /. float_of_int o.Tuner.Prune.pr_total);
        Printf.printf "winner: %s  (%.4f ms simulated)\n"
          o.Tuner.Prune.pr_winner.Tuner.Measure.cand.desc
          (o.Tuner.Prune.pr_winner.Tuner.Measure.time_s *. 1000.0);
        winner_line arch o.Tuner.Prune.pr_winner;
        if store_file <> None then
          Printf.printf "result store: %d hit(s), %d miss(es)\n" (Tuner.Measure.store_hits engine)
            (Tuner.Measure.store_misses engine))
  in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(
      const run $ app_arg $ jobs_arg $ quick_arg $ store_arg $ arch_name_arg $ rules_flag
      $ budget_arg $ top_arg)

let chaos_cmd =
  let doc =
    "Prove the tuner's fault tolerance on an application: inject deterministic failures \
     (crashing thunks, watchdog-caught runaway kernels, corrupt passes) into the space, check \
     that every fault is reported and the search still finds the true optimum among the \
     survivors, then kill a sweep partway and check that re-running it against the same result \
     store reproduces the uninterrupted result exactly.  Exits nonzero if any check fails."
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Victim-selection seed.")
  in
  let faults_arg =
    Arg.(value & opt int 5 & info [ "faults" ] ~docv:"N" ~doc:"Number of faults to inject.")
  in
  let hit_frontier_arg =
    Arg.(
      value & flag
      & info [ "hit-frontier" ]
          ~doc:
            "Let faults land on the fault-free run's Pareto-selected subset too.  Killing \
             frontier members legitimately changes what the pruned search selects, so the \
             strict selection-unchanged checks are skipped in this mode (the exhaustive-optimum \
             and resume checks still apply).")
  in
  let run (e : Apps.Registry.entry) jobs quick seed nfaults hit_frontier =
    let narrative, checks =
      Tuner.Chaos.self_test ~jobs ~app_name:e.name ~seed ~count:nfaults ~hit_frontier
        (e.candidates (scale_of quick))
    in
    print_string narrative;
    List.iter
      (fun (name, ok) -> Printf.printf "CHECK %-52s %s\n" name (if ok then "ok" else "FAIL"))
      checks;
    match List.length (List.filter (fun (_, ok) -> not ok) checks) with
    | 0 -> Printf.printf "\nall checks passed\n"
    | failures ->
      Printf.printf "\n%d check(s) FAILED\n" failures;
      exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ app_arg $ jobs_arg $ quick_arg $ seed_arg $ faults_arg $ hit_frontier_arg)

let tune_cmd =
  let doc =
    "Run the paper's methodology: compile the whole space, compute the static metrics, measure \
     only the Pareto-optimal subset, report the chosen configuration."
  in
  let run (e : Apps.Registry.entry) jobs quick store_file arch_name rules =
    if arch_name = "all" then begin
      with_store store_file (fun store ->
          List.iter
            (fun (arch : Gpu.Arch.t) ->
              let cands =
                e.candidates ~arch ?extra_ptx:(rules_extra ?store ~jobs rules arch) (scale_of quick)
              in
              let tuned =
                Tuner.Search.tune_full ~jobs ?store:(bound store e (scale_of quick) cands)
                  ~app_name:e.name cands
              in
              winner_line arch tuned.Tuner.Search.chosen)
            Gpu.Arch.archs);
      exit 0
    end;
    let arch = resolve_arch arch_name in
    let cands, tuned =
      with_store store_file (fun store ->
          let cands =
            e.candidates ~arch ?extra_ptx:(rules_extra ?store ~jobs rules arch) (scale_of quick)
          in
          ( cands,
            Tuner.Search.tune_full ~jobs ?store:(bound store e (scale_of quick) cands)
              ~app_name:e.name cands ))
    in
    let best = tuned.Tuner.Search.chosen and selected = tuned.Tuner.Search.considered in
    Printf.printf "space: %d configurations, measured only %d (%.0f%% pruned)\n"
      (List.length (List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands))
      (List.length selected)
      (100.0
      *. (1.0
         -. float_of_int (List.length selected)
            /. float_of_int (List.length (List.filter (fun (c : Tuner.Candidate.t) -> c.valid) cands))
         ));
    List.iter
      (fun ((c : Tuner.Candidate.t), (m : Tuner.Metrics.t)) ->
        Printf.printf "  candidate %-28s eff=%.3e util=%8.1f\n" c.desc m.efficiency m.utilization)
      selected;
    Printf.printf "chosen: %s (%.4f ms simulated)\n" best.cand.desc (best.time_s *. 1000.0);
    winner_line arch best;
    if store_file <> None then
      Printf.printf "result store: %d hit(s), %d miss(es)\n" tuned.tune_engine.store_hits
        tuned.tune_engine.store_misses
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(const run $ app_arg $ jobs_arg $ quick_arg $ store_arg $ arch_name_arg $ rules_flag)

let inspect_cmd =
  let doc =
    "Describe an application's optimization space (axes, constraints, cardinality); with \
     $(b,--trace), compile one configuration through the verified pipeline and print per-pass \
     statistics."
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"DESC"
          ~doc:"Configuration to trace, by description (default: the space's first point).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Compile one configuration and print the pass trace.")
  in
  let run (e : Apps.Registry.entry) config trace =
    Printf.printf "%s — %s\n\n" e.display e.title;
    print_string
      (Tuner.Report.table [ "Axis"; "Values" ]
         (List.map
            (fun (a : Tuner.Space.axis_info) ->
              [ a.axis_name; String.concat ", " a.axis_values ])
            e.axes));
    List.iter (Printf.printf "constraint: %s\n") e.constraints;
    Printf.printf "%d configurations\n" e.cardinality;
    if trace then begin
      let desc = match config with Some d -> d | None -> List.hd (Lazy.force e.configs) in
      let stats = ref [] in
      match e.compile ~hook:(fun s -> stats := s :: !stats) desc with
      | Error msg -> prerr_endline msg; exit 1
      | Ok c ->
        Printf.printf "\ntrace of %s:\n" desc;
        print_string (Tuner.Pipeline.trace_table (List.rev !stats));
        Printf.printf "\ninstruction classes:\n";
        print_string
          (Tuner.Report.table
             [ "Class"; "Static"; "Dynamic/thread" ]
             (List.map
                (fun (r : Ptx.Count.class_row) ->
                  [ r.class_name; string_of_int r.static_count;
                    Printf.sprintf "%.0f" r.dynamic_count ])
                (Ptx.Count.class_breakdown c.ptx)));
        Printf.printf "\n%d instructions, %d regs/thread, %d bytes smem/block\n"
          (Ptx.Prog.static_size c.ptx) c.resource.regs_per_thread c.resource.smem_bytes_per_block
    end
    else
      match config with
      | None -> ()
      | Some desc -> (
        match e.compile desc with
        | Error msg -> prerr_endline msg; exit 1
        | Ok c ->
          Printf.printf "\n%s: %d instructions, %d regs/thread, %d bytes smem/block\n" desc
            (Ptx.Prog.static_size c.ptx) c.resource.regs_per_thread c.resource.smem_bytes_per_block)
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ app_arg $ config_arg $ trace_arg)

let lint_cmd =
  let doc =
    "Statically analyze an application's memory accesses on a quick-scale launch: affine \
     per-site coalescing and bank-conflict predictions, a shared-memory race check and \
     divergent-barrier detection.  Exits nonzero if a race or divergent barrier is found.  \
     $(b,--crossval) additionally diffs every static prediction against the simulator's \
     per-site counters; $(b,--mutate) injects a classic bug first (for demonstration)."
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"DESC"
          ~doc:"Configuration to analyze, by description (default: the space's first point).")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some (enum [ ("race", `Race); ("bank", `Bank) ])) None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            "Analyze a deliberately broken variant: $(b,race) drops a barrier, $(b,bank) \
             transposes a shared-memory store.")
  in
  let crossval_arg =
    Arg.(
      value & flag
      & info [ "crossval" ]
          ~doc:"Cross-validate static predictions against the simulator's dynamic counters.")
  in
  let run (e : Apps.Registry.entry) config mutate crossval arch_name =
    let arch = resolve_arch arch_name in
    let fail msg = prerr_endline msg; exit 1 in
    match e.workbench ~arch ?config () with
    | Error msg -> fail msg
    | Ok wb ->
      let mutant =
        Option.map
          (fun m -> match Apps.Workbench.mutation wb m with Ok f -> f | Error msg -> fail msg)
          mutate
      in
      let report =
        match mutant with
        | None -> Apps.Workbench.lint wb
        | Some f -> Apps.Workbench.lint_mutant wb f
      in
      print_string (Analysis.Lint.render report);
      (* Dead-store lint ([Ptx.Liveness.dead_defs]): instructions whose
         defined register is dead on every path out of their position.
         The raw lowering is reported as a count (DCE will remove
         those); anything still dead in the *optimized* kernel is a
         wasted issue slot and is listed instruction by instruction. *)
      let lowered = Kir.Lower.lower wb.Apps.Workbench.wb_kernel in
      let dead_lowered = Ptx.Liveness.dead_defs lowered in
      if dead_lowered <> [] then
        Printf.printf "dead stores: %d in the raw lowering (removed by dce)\n"
          (List.length dead_lowered);
      let dead =
        Ptx.Liveness.dead_defs wb.Apps.Workbench.wb_compiled.Tuner.Pipeline.ptx
      in
      if dead = [] then Printf.printf "dead stores: none in the optimized kernel\n"
      else begin
        Printf.printf "dead stores: %d survive optimization (wasted issue slots):\n"
          (List.length dead);
        List.iter
          (fun (label, j, i) -> Printf.printf "  %s[%d]: %s\n" label j (Ptx.Pp.instr i))
          dead
      end;
      if crossval then begin
        Printf.printf "\ncross-validation against the simulator:\n";
        print_string
          (Analysis.Crossval.render
             (Apps.Workbench.crossval ?mutate:mutant wb))
      end;
      if Analysis.Lint.has_errors report then exit 1
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ app_arg $ config_arg $ mutate_arg $ crossval_arg $ arch_name_arg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"minicuda source file")

let compile_cmd =
  let doc = "Compile a minicuda file to the PTX-like ISA and report resources and profile." in
  let run file =
    List.iter
      (fun k ->
        let c = Tuner.Pipeline.lower_opt k in
        print_string (Ptx.Pp.kernel c.ptx);
        Format.printf "// %a@." Ptx.Resource.pp c.resource;
        let prof = c.profile in
        Printf.printf
          "// profile: %.0f dynamic instrs/thread, %.0f regions, %.0f barriers, %.0f bytes \
           off-chip/thread\n\n"
          prof.instr prof.regions prof.barriers prof.global_bytes)
      (Minicuda.Parser.parse_file file)
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ file_arg)

let run_cmd =
  let doc =
    "Compile a single-kernel minicuda file and simulate it.  Buffers named with --buf are \
     zero-initialized (or ramp-initialized with --ramp) and the first words of each are printed \
     after the run."
  in
  let grid = Arg.(value & opt (pair ~sep:'x' int int) (1, 1) & info [ "grid" ] ~docv:"GXxGY") in
  let block = Arg.(value & opt (pair ~sep:'x' int int) (32, 1) & info [ "block" ] ~docv:"BXxBY") in
  let bufs =
    Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "buf" ] ~docv:"NAME=WORDS")
  in
  let ramps =
    Arg.(value & opt_all string [] & info [ "ramp" ] ~docv:"NAME" ~doc:"initialize NAME to 0,1,2,...")
  in
  let ints = Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "int" ] ~docv:"NAME=V") in
  let floats =
    Arg.(value & opt_all (pair ~sep:'=' string float) [] & info [ "float" ] ~docv:"NAME=V")
  in
  let show = Arg.(value & opt int 8 & info [ "show" ] ~docv:"N" ~doc:"words of output to print") in
  let run file (gx, gy) (bx, by) bufs ramps ints floats show =
    let kir = List.hd (Minicuda.Parser.parse_file file) in
    let ptx = (Tuner.Pipeline.lower_opt kir).ptx in
    let dev = Gpu.Device.create () in
    let buffers =
      List.map
        (fun (name, words) ->
          let space =
            match List.find_opt (fun (a : Kir.Ast.array_param) -> a.aname = name) kir.array_params with
            | Some a -> a.aspace
            | None -> failwith (Printf.sprintf "kernel has no array parameter %S" name)
          in
          let b =
            match space with
            | Kir.Ast.Const -> Gpu.Device.alloc_const dev words
            | _ -> Gpu.Device.alloc dev words
          in
          if List.mem name ramps then
            Gpu.Device.to_device dev b (Array.init words float_of_int);
          (name, b))
        bufs
    in
    let args =
      List.map (fun (n, b) -> (n, Gpu.Sim.Buf b)) buffers
      @ List.map (fun (n, v) -> (n, Gpu.Sim.I v)) ints
      @ List.map (fun (n, v) -> (n, Gpu.Sim.F v)) floats
    in
    let launch = { Gpu.Sim.kernel = ptx; grid = (gx, gy); block = (bx, by); args } in
    let stats = Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = Gpu.Sim.default_max_blocks }) dev launch in
    ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional dev launch);
    Printf.printf
      "simulated %.0f cycles = %.4f ms  (B_SM=%d, %d regs/thread, %d gmem transactions)\n"
      stats.cycles (stats.time_s *. 1000.0) stats.occupancy.blocks_per_sm stats.regs_per_thread
      stats.gmem_transactions;
    List.iter
      (fun (name, b) ->
        let data = Gpu.Device.of_device dev b in
        let n = min show (Array.length data) in
        Printf.printf "%s[0..%d] =" name (n - 1);
        for i = 0 to n - 1 do
          Printf.printf " %g" data.(i)
        done;
        print_newline ())
      buffers
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ file_arg $ grid $ block $ bufs $ ramps $ ints $ floats $ show)

(* ------------------------------------------------------------------ *)
(* Tuning service                                                      *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(value & opt string "gpuopt.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let doc =
    "Run the tuning service: a daemon answering tune/explore/lint requests over a \
     length-prefixed JSON protocol on a Unix-domain socket, with every measurement backed by a \
     persistent content-addressed store — no (kernel x space x arch) point is ever measured \
     twice, by any client, in any session.  Stop it with $(b,gpuopt request shutdown)."
  in
  let store_arg =
    let doc =
      "Content-addressed result store file (created if absent; appended atomically; corrupt \
       entries are rejected and skipped on load)."
    in
    Arg.(value & opt string "gpuopt.store" & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let conns_arg =
    let doc = "Connection-worker domains (concurrent requests in flight)." in
    Arg.(value & opt int 4 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let durable_arg =
    let doc =
      "fsync the store after every appended record: a machine crash (not just a process crash) \
       loses no completed measurement, at the cost of one disk sync per new store entry."
    in
    Arg.(value & flag & info [ "durable" ] ~doc)
  in
  let run socket store_file conns jobs durable =
    let store = Tuner.Store.open_ ~durable ~file:store_file () in
    List.iter
      (fun (c : Tuner.Store.corrupt_line) ->
        Printf.eprintf "store: %s:%d rejected: %s\n%!" store_file c.cl_line c.cl_reason)
      (Tuner.Store.corrupt_entries store);
    let server = Tuner.Serve.create ~jobs ~store (Apps.Serving.resolver ()) in
    Printf.printf "gpuopt serve: listening on %s (store %s: %d entr%s loaded, %d conn worker(s), \
                   %d measurement job(s))\n%!"
      socket store_file
      (Tuner.Store.loaded store)
      (if Tuner.Store.loaded store = 1 then "y" else "ies")
      conns jobs;
    (* SIGTERM (systemd stop, timeout(1), an operator's kill) drains
       gracefully: in-flight sweeps finish, their results reach the
       store, then the daemon exits through the normal path below. *)
    Tuner.Serve.listen ~conn_workers:conns ~on_sigterm:true server ~socket ();
    let s = Tuner.Serve.stats server in
    Tuner.Store.close store;
    Printf.printf
      "gpuopt serve: shut down after %d request(s) (%d error(s)); %d simulator run(s), %d store \
       hit(s), %d entr%s in %s\n"
      s.sv_requests s.sv_errors s.sv_runs s.sv_store_hits s.sv_store_entries
      (if s.sv_store_entries = 1 then "y" else "ies")
      store_file
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ store_arg $ conns_arg $ jobs_arg $ durable_arg)

let request_cmd =
  let doc =
    "Send one request to a running $(b,gpuopt serve) daemon and print the reply.  Verbs: \
     $(b,ping), $(b,stats), $(b,tune) $(i,APP), $(b,explore) $(i,APP), $(b,lint) $(i,APP), \
     $(b,shutdown).  Exits nonzero if the server answers with an error."
  in
  let verb_arg =
    let verbs = [ "ping"; "stats"; "tune"; "explore"; "lint"; "shutdown" ] in
    let parse s = if List.mem s verbs then Ok s else Error (`Msg ("unknown verb " ^ s)) in
    Arg.(
      required
      & pos 0 (some (conv (parse, Format.pp_print_string))) None
      & info [] ~docv:"VERB" ~doc:"ping | stats | tune | explore | lint | shutdown")
  in
  let req_app_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"APP" ~doc:"Application name")
  in
  let scale_arg =
    let parse s =
      match Tuner.Proto.scale_of_name s with
      | Some sc -> Ok sc
      | None -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|bench|full)" s))
    in
    Arg.(
      value
      & opt (conv (parse, fun fmt s -> Format.pp_print_string fmt (Tuner.Proto.scale_name s)))
          Tuner.Proto.Quick
      & info [ "scale" ] ~docv:"SCALE" ~doc:"Problem scale: quick, bench or full.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some (pair ~sep:',' int int)) None
      & info [ "chaos" ] ~docv:"SEED,COUNT"
          ~doc:
            "Inject $(i,COUNT) seeded faults into the explore sweep (server-side, store \
             bypassed).")
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"DESC" ~doc:"Configuration for lint, by description.")
  in
  let need_app verb = function
    | Some a -> a
    | None ->
      Printf.eprintf "request %s: missing APP argument\n" verb;
      exit 2
  in
  let print_row tag (r : Tuner.Proto.measured_row) =
    Printf.printf "%s %s  (%.4f ms simulated)\n" tag r.m_desc (r.m_time_s *. 1000.0)
  in
  let run socket verb app scale chaos config arch predict deadline_ms retries =
    Tuner.Serve.ignore_sigpipe ();
    let req =
      match verb with
      | "ping" -> Tuner.Proto.Ping
      | "stats" -> Tuner.Proto.Stats
      | "shutdown" -> Tuner.Proto.Shutdown
      | "tune" -> Tuner.Proto.Tune { app = need_app verb app; scale; arch; deadline_ms }
      | "explore" ->
        Tuner.Proto.Explore
          {
            app = need_app verb app;
            scale;
            chaos =
              Option.map (fun (seed, count) -> { Tuner.Proto.ch_seed = seed; ch_count = count }) chaos;
            arch;
            predict;
            deadline_ms;
          }
      | "lint" -> Tuner.Proto.Lint { app = need_app verb app; config }
      | _ -> assert false
    in
    match Tuner.Serve.call ~retries ~socket req with
    | Error msg ->
      Printf.eprintf "request: %s (is `gpuopt serve --socket %s` running?)\n" msg socket;
      exit 1
    | Ok resp -> (
      match resp with
      | Tuner.Proto.Pong -> print_endline "pong"
      | Tuner.Proto.Bye -> print_endline "server shutting down"
      | Tuner.Proto.Stats_r s ->
        Printf.printf
          "requests %d (errors %d)\nsimulator runs %d\nstore: %d hit(s), %d miss(es), %d \
           entr%s\n"
          s.sv_requests s.sv_errors s.sv_runs s.sv_store_hits s.sv_store_misses
          s.sv_store_entries
          (if s.sv_store_entries = 1 then "y" else "ies")
      | Tuner.Proto.Tune_r t ->
        Printf.printf
          "space: %d configurations on %s, measured only %d (%d run(s), %d store hit(s))\n"
          t.t_space_size t.t_arch (List.length t.t_selected) t.t_runs t.t_store_hits;
        print_row "chosen:" t.t_chosen
      | Tuner.Proto.Explore_r x ->
        Printf.printf
          "space: %d valid configurations (%d invalid) on %s, %d fault(s)\nreduction %.1f%%, \
           optimum %sselected (%d run(s), %d store hit(s))\n"
          x.x_space_size x.x_invalid x.x_arch (List.length x.x_faults) (100.0 *. x.x_reduction)
          (if x.x_optimum_selected then "" else "NOT ")
          x.x_runs x.x_store_hits;
        print_row "true optimum: " x.x_best;
        print_row "pruned search:" x.x_selected_best;
        (match x.x_prune with
        | None -> ()
        | Some p ->
          Printf.printf
            "model race: %d probe(s) + %d survivor(s) = %d of %d fully simulated (%.1f%%), %d \
             raced; optimum predicted rank %s; %s\n"
            p.p_probes
            (p.p_simulated - p.p_probes)
            p.p_simulated p.p_total
            (100.0 *. float_of_int p.p_simulated /. float_of_int p.p_total)
            p.p_raced
            (if p.p_rank > 0 then Printf.sprintf "%d/%d" p.p_rank p.p_total else "-")
            (if p.p_recovered then "optimum recovered" else "optimum MISSED");
          print_row "race winner:  " p.p_winner;
          Printf.printf "model %s\n" p.p_model);
        List.iter
          (fun (f : Tuner.Proto.fault_row) -> Printf.printf "fault: %s: %s\n" f.f_desc f.f_fault)
          x.x_faults
      | Tuner.Proto.Lint_r { l_report; l_errors } ->
        print_string l_report;
        if l_errors then exit 1
      | Tuner.Proto.Overloaded_r { o_retry_after_ms } ->
        Printf.eprintf "server overloaded: retry after %d ms (or pass --retries)\n"
          o_retry_after_ms;
        exit 1
      | Tuner.Proto.Error_r { e_code; e_msg } ->
        Printf.eprintf "server error [%s]: %s\n" (Tuner.Proto.error_code_name e_code) e_msg;
        exit 1)
  in
  let req_arch_arg =
    let doc = "Target machine model for tune/explore, by registry name (server-validated)." in
    Arg.(value & opt (some string) None & info [ "arch" ] ~docv:"NAME" ~doc)
  in
  let req_predict_arg =
    let doc =
      "Ask the server to also run the model-driven race on an explore request and report its \
       pruning ratio and winner (ignored with $(b,--chaos))."
    in
    Arg.(value & flag & info [ "predict" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Deadline in milliseconds for tune/explore: the server abandons the sweep at the next \
       candidate boundary past the deadline and answers with a typed $(i,deadline-exceeded) \
       error.  Measurements completed before the cutoff are stored, so a retry resumes from \
       them."
    in
    Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry transport failures and typed $(i,overloaded) sheds up to $(i,N) times with \
       jittered exponential backoff.  Safe: measurements are content-addressed, so a retried \
       sweep never repeats completed work."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      const run $ socket_arg $ verb_arg $ req_app_arg $ scale_arg $ chaos_arg $ config_arg
      $ req_arch_arg $ req_predict_arg $ deadline_arg $ retries_arg)

let store_cmd =
  let doc =
    "Maintain a content-addressed result store file offline.  Verbs: $(b,fsck) $(i,FILE) \
     scans and reports valid / duplicate / corrupt records without modifying anything; \
     $(b,compact) $(i,FILE) rewrites the file down to its valid deduplicated records \
     (fsync + atomic rename) and reports the bytes reclaimed.  Run against a store no daemon \
     has open for writing."
  in
  let verb_arg =
    let verbs = [ "fsck"; "compact" ] in
    let parse s = if List.mem s verbs then Ok s else Error (`Msg ("unknown verb " ^ s)) in
    Arg.(
      required
      & pos 0 (some (conv (parse, Format.pp_print_string))) None
      & info [] ~docv:"VERB" ~doc:"fsck | compact")
  in
  let file_pos_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Store file to check.")
  in
  let print_report (r : Tuner.Store.fsck_report) =
    Printf.printf "%s: %d byte(s), %d record(s): %d valid, %d duplicate(s), %d corrupt\n"
      r.fs_file r.fs_bytes r.fs_records r.fs_valid r.fs_duplicates (List.length r.fs_corrupt);
    List.iter
      (fun (c : Tuner.Store.corrupt_line) ->
        Printf.printf "  line %d: %s\n" c.cl_line c.cl_reason)
      r.fs_corrupt
  in
  let run verb file =
    if not (Sys.file_exists file) then begin
      Printf.eprintf "store %s: %s: no such file\n" verb file;
      exit 2
    end;
    match verb with
    | "fsck" ->
      let r = Tuner.Store.fsck ~file in
      print_report r;
      Printf.printf "reclaimable: %d byte(s)\n" r.fs_reclaimable;
      (* Like fsck(8): nonzero exit when the file needs attention. *)
      if r.fs_corrupt <> [] || r.fs_duplicates > 0 then exit 1
    | "compact" ->
      let r, reclaimed = Tuner.Store.compact ~file in
      print_report r;
      Printf.printf "compacted: %d byte(s) reclaimed\n" reclaimed
    | _ -> assert false
  in
  Cmd.v (Cmd.info "store" ~doc) Term.(const run $ verb_arg $ file_pos_arg)

(* ------------------------------------------------------------------ *)
(* Superoptimizer                                                      *)
(* ------------------------------------------------------------------ *)

let len_arg =
  let doc = "Maximum window length to enumerate (1 or 2)." in
  Arg.(value & opt int 2 & info [ "len" ] ~docv:"N" ~doc)

let sweep_arg =
  let doc = "Random adversarial vectors per candidate pair in the bounded tier." in
  Arg.(value & opt int 128 & info [ "sweep" ] ~docv:"N" ~doc)

let superopt_params quick len sweep =
  if quick then (min len 1, min sweep 64) else (len, sweep)

let superopt_cmd =
  let doc =
    "Discover a verified peephole rule database for the target machine: enumerate short \
     canonical windows, propose cheaper rewrites, and push each pair through the equivalence \
     funnel (quick vectors, adversarial bounded sweep, exhaustive proof on narrow domains).  \
     With $(i,APP), additionally apply the database to the app's default configuration and \
     validate the result.  $(b,--quick) bounds discovery to single-instruction windows."
  in
  let opt_app_arg =
    Arg.(value & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Apply the rules to this app's kernel")
  in
  let run app jobs quick store_file arch_name len sweep =
    let arch = resolve_arch arch_name in
    let max_len, sweep = superopt_params quick len sweep in
    let r =
      with_store store_file (fun store ->
          Tuner.Superopt.discover_cached ?store ~jobs ~arch ~max_len ~sweep ())
    in
    let open Tuner.Superopt in
    if r.cached then
      Printf.printf "%d rule(s) loaded from the store (arch %s)\n" (List.length r.rules)
        arch.Gpu.Arch.name
    else begin
      print_string (funnel_table r.funnel);
      let q, b, e = tier_counts r.rules in
      Printf.printf "\n%d rule(s) on %s: %d exhaustive, %d bounded, %d quick\n"
        (List.length r.rules) arch.Gpu.Arch.name e b q;
      if r.elapsed_s > 0.0 then
        Printf.printf "discovery: %.2fs, %.1f rules/s, %d pairs screened\n" r.elapsed_s
          (float_of_int (List.length r.rules) /. r.elapsed_s)
          r.funnel.fn_pairs
    end;
    Printf.printf "db digest: %s\n" (Ptx.Patterns.digest r.rules);
    match app with
    | None -> ()
    | Some (e : Apps.Registry.entry) -> (
      match e.workbench ~arch () with
      | Error msg -> prerr_endline msg; exit 1
      | Ok wb ->
        (* Apply to the *raw lowering* of the app's default config — the
           optimized kernel has already been folded by [Ptx.Opt], the
           raw one still contains the patterns the rules target. *)
        let before = Kir.Lower.lower wb.Apps.Workbench.wb_kernel in
        let after, st = Ptx.Peephole.run_stats r.rules before in
        Printf.printf
          "\n%s %s: %d -> %d instructions, %d window(s) rewritten, %d blocked by liveness\n"
          e.name wb.Apps.Workbench.wb_config
          (Ptx.Prog.static_size before) (Ptx.Prog.static_size after)
          st.Ptx.Peephole.matched st.Ptx.Peephole.blocked;
        (match Ptx.Verify.check after with
        | Ok () -> ()
        | Error vs ->
          Printf.printf "verifier rejected the rewritten kernel:\n%s\n" (Ptx.Verify.report vs);
          exit 1);
        (match Ptx.Equiv.validate before after with
        | Ok n -> Printf.printf "translation validation: ok (%d vectors)\n" n
        | Error m ->
          Printf.printf "translation validation FAILED: %s\n" (Ptx.Equiv.mismatch_to_string m);
          exit 1))
  in
  Cmd.v (Cmd.info "superopt" ~doc)
    Term.(
      const run $ opt_app_arg $ jobs_arg $ quick_arg $ store_arg $ arch_name_arg $ len_arg
      $ sweep_arg)

let rules_cmd =
  let doc =
    "Print the verified rule database, one rule per line (proof tier, cycles saved, window => \
     replacement), then its digest — the line CI pins against drift.  Reads the database from \
     $(b,--store) when present, else discovers it."
  in
  let run jobs quick store_file arch_name len sweep =
    let arch = resolve_arch arch_name in
    let max_len, sweep = superopt_params quick len sweep in
    let r =
      with_store store_file (fun store ->
          Tuner.Superopt.discover_cached ?store ~jobs ~arch ~max_len ~sweep ())
    in
    List.iter (fun rule -> print_endline (Ptx.Patterns.to_line rule)) r.Tuner.Superopt.rules;
    Printf.printf "%d rule(s), db digest: %s\n" (List.length r.Tuner.Superopt.rules)
      (Ptx.Patterns.digest r.Tuner.Superopt.rules)
  in
  Cmd.v (Cmd.info "rules" ~doc)
    Term.(const run $ jobs_arg $ quick_arg $ store_arg $ arch_name_arg $ len_arg $ sweep_arg)

let () =
  let doc = "program optimization space pruning for a multithreaded GPU (CGO'08 reproduction)" in
  let info = Cmd.info "gpuopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            arch_cmd; archs_cmd; explore_cmd; tune_cmd; predict_cmd; inspect_cmd; lint_cmd;
            compile_cmd; run_cmd; chaos_cmd; serve_cmd; request_cmd; store_cmd; superopt_cmd; rules_cmd;
          ]))

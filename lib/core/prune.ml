(* Model-driven search: find the optimum while fully simulating only a
   slice of the space.

   The paper's methodology measures the Pareto subset of two static
   metrics (74-98% pruning, Table 4).  This module goes further with a
   three-rung successive-halving race:

     rung 0  predict   rank the WHOLE space with the [Predict] ridge
                       model, fit on a small seeded probe set that is
                       measured at full scale (and is part of the
                       final answer pool);
     rung 1  race      measure the space at the REDUCED launch shape
                       (the same quick scales the lint workbenches
                       use — [Apps.App.Reduced]), which costs a
                       fraction of a full simulation per candidate;
                       [pl_race_frac] < 1 admits only the top
                       predicted slice, trading safety for speed;
     rung 2  simulate  fully simulate only the race's survivors — most
                       survivor slots go to the fastest-at-reduced-
                       shape candidates, with up to two reserved for
                       the model's own top predictions, so a reduced
                       shape that mis-ranks an outlier the model
                       understands still loses gracefully.

   Only rung 0's probes and rung 2's survivors touch the full-scale
   simulator, so the full-simulation count is structurally bounded by
   the budget — it is a property of the schedule, not of cache or
   store state, and the reported pruning ratio is identical on warm
   and cold runs.

   Determinism: the probe set comes from a [Util.Rng] stream seeded by
   a digest of the app name and the space's descs (no wall clock, no
   global [Random]); measurement order never affects simulated times
   ([Measure.measure_outcomes] preserves input order); ranking sorts
   are stable with index tie-breaks.  The outcome — model digest,
   ranking, winner — is therefore bit-identical for every [?jobs]
   value. *)

type plan = {
  pl_budget_frac : float;  (* full-simulation budget, fraction of the valid space *)
  pl_probe_frac : float;  (* fraction of that budget spent on the probe/fit set *)
  pl_race_frac : float;  (* fraction of the space admitted to the reduced-scale race *)
  pl_lambda : float;  (* ridge regularization *)
}

let default_plan =
  { pl_budget_frac = 0.10; pl_probe_frac = 0.4; pl_race_frac = 1.0; pl_lambda = 1e-2 }

(* Everything the racing stage needs beyond the candidate list itself:
   the same space compiled at the reduced launch shape, and the
   verified peephole database feeding the rule-win feature (empty is
   fine: the feature reads zero). *)
type spec = {
  sp_plan : plan;
  sp_reduced : Candidate.t list;
  sp_rules : Ptx.Patterns.rule list;
}

let spec ?(plan = default_plan) ?(rules = []) ~(reduced : Candidate.t list) () : spec =
  { sp_plan = plan; sp_reduced = reduced; sp_rules = rules }

type outcome = {
  pr_total : int;  (* valid candidates in the space *)
  pr_budget : int;  (* full-simulation budget, in candidates *)
  pr_probes : string list;  (* probe descs, selection order *)
  pr_raced : int;  (* candidates raced at the reduced shape *)
  pr_reduced_missing : int;  (* raced candidates with no valid reduced twin *)
  pr_survivors : string list;  (* race survivors, fully simulated *)
  pr_simulated : int;  (* distinct candidates fully simulated (probes + survivors) *)
  pr_winner : Measure.measured;  (* fastest fully-simulated candidate *)
  pr_ranked : (string * float) list;  (* desc, predicted seconds; rung-0 rank order *)
  pr_model : Predict.model;
}

(* 1-based rung-0 rank of a desc (how early prediction alone would have
   tried it); None if the desc is not in the space. *)
let rank_of (o : outcome) (desc : string) : int option =
  let rec go i = function
    | [] -> None
    | (d, _) :: tl -> if String.equal d desc then Some i else go (i + 1) tl
  in
  go 1 o.pr_ranked

let recovered (o : outcome) ~(best : Measure.measured) : bool =
  o.pr_winner.Measure.time_s <= best.Measure.time_s

(* Seed for probe selection: a pure function of the app and the space,
   so reruns (and every jobs value) draw the same probes. *)
let probe_seed ~(app_name : string) (descs : string list) : int =
  let d = Digest.string (String.concat "\n" (app_name :: "predict-v1" :: descs)) in
  Int64.to_int (Bytes.get_int64_be (Bytes.of_string d) 0)

(* First [k] elements of a seeded shuffle of [xs]. *)
let sample ~seed k (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  let rng = Util.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* The race itself.  [engine] is the FULL-scale measurement engine —
   the caller owns its store binding, and an engine that already holds
   exhaustive measurements (the explore comparison path) answers the
   probe and survivor requests from cache, so the structural counts in
   the outcome stay honest either way.  The store bound to [engine], if
   any, also backs the reduced-scale race, keyed by the REDUCED space
   digest so every race of the same space — warm daemon, CLI, bench —
   shares entries. *)
let run ?jobs ?cancel ~(engine : Measure.t) ~(app_name : string) (s : spec)
    (cands : Candidate.t list) : outcome =
  let plan = s.sp_plan in
  let valid = List.filter (fun (c : Candidate.t) -> c.valid) cands in
  let n = List.length valid in
  if n = 0 then invalid_arg (app_name ^ ": no valid configuration to prune");
  let budget =
    min n (max 3 (int_of_float (Float.floor (plan.pl_budget_frac *. float_of_int n))))
  in
  let nprobe =
    max 2 (min (budget - 1) (int_of_float (Float.round (plan.pl_probe_frac *. float_of_int budget))))
  in
  let nprobe = min nprobe n in
  let descs = List.map (fun (c : Candidate.t) -> c.desc) valid in
  (* rung 0a: probe.  Probes are full-scale measurements and count
     against the budget; their times both fit the model and compete for
     the final answer. *)
  let probes = sample ~seed:(probe_seed ~app_name descs) nprobe valid in
  let probe_outcomes = Measure.measure_outcomes ?jobs ?cancel engine probes in
  let probe_ok =
    List.filter_map
      (fun ((c : Candidate.t), o) -> match o with Ok t -> Some (c, t) | Error _ -> None)
      probe_outcomes
  in
  (* rung 0b: fit + rank the whole space. *)
  let features =
    List.map (fun (c : Candidate.t) -> (c, Predict.of_candidate ~rules:s.sp_rules c)) valid
  in
  let feat_of =
    let tbl = Hashtbl.create (2 * n) in
    List.iter (fun ((c : Candidate.t), f) -> Hashtbl.replace tbl c.desc f) features;
    fun (c : Candidate.t) -> Hashtbl.find tbl c.desc
  in
  let model =
    Predict.fit ~lambda:plan.pl_lambda
      (List.filter_map
         (fun ((c : Candidate.t), t) ->
           if t > 0.0 then Some (feat_of c, Float.log t) else None)
         probe_ok)
  in
  let ranked =
    (* stable: equal predictions keep space order *)
    List.stable_sort
      (fun (_, a, i) (_, b, j) -> if a = b then compare i j else compare a b)
      (List.mapi (fun i (c, f) -> (c, Predict.predict model f, i)) features)
    |> List.map (fun ((c : Candidate.t), p, _) -> (c, Float.exp p))
  in
  (* rung 1: race the top predicted slice at the reduced shape.  A
     candidate without a valid reduced twin (validity can differ across
     shapes) cannot be raced; it keeps its prediction-order position
     AFTER every raced candidate, so the race can only promote. *)
  let probe_descs = List.map (fun (c : Candidate.t) -> c.desc) probes in
  let is_probe d = List.mem d probe_descs in
  let nrace =
    min n (max budget (int_of_float (Float.ceil (plan.pl_race_frac *. float_of_int n))))
  in
  let raced = List.filteri (fun i _ -> i < nrace) ranked in
  let twin =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (c : Candidate.t) -> if c.valid then Hashtbl.replace tbl c.desc c)
      s.sp_reduced;
    fun (c : Candidate.t) -> Hashtbl.find_opt tbl c.desc
  in
  let rengine = Measure.create ~app_name () in
  Option.iter
    (fun (sb : Measure.store_binding) ->
      Measure.attach_store rengine
        { sb with sb_key = Store.keys ~app_name ~scale:"reduced" s.sp_reduced })
    (Measure.store engine);
  let with_twin =
    List.filter_map (fun ((c : Candidate.t), _) -> Option.map (fun r -> (c, r)) (twin c)) raced
  in
  let reduced_times =
    let outs = Measure.measure_outcomes ?jobs ?cancel rengine (List.map snd with_twin) in
    let tbl = Hashtbl.create 64 in
    List.iter2
      (fun ((c : Candidate.t), _) (_, o) ->
        match o with Ok t -> Hashtbl.replace tbl c.desc t | Error _ -> ())
      with_twin outs;
    tbl
  in
  let missing =
    List.length (List.filter (fun ((c : Candidate.t), _) -> not (Hashtbl.mem reduced_times c.desc)) raced)
  in
  (* rung 2: fill the survivor slots that remain in the budget next to
     the probes.  Most slots go by reduced-shape time (sort key
     (reduced time, rung-0 rank); un-raceable candidates sort as +inf
     reduced time, i.e. by prediction alone).  When more than two
     slots exist, up to two are reserved for the model's best
     predictions among the rest — an ensemble pick, so neither fidelity
     has to be right alone. *)
  let nsurv = max 1 (budget - List.length probes) in
  let npred = min 2 (max 0 (nsurv - 2)) in
  let contenders =
    List.filteri (fun _ ((c : Candidate.t), _) -> not (is_probe c.desc)) raced
    |> List.mapi (fun i ((c : Candidate.t), _) ->
           let rt =
             match Hashtbl.find_opt reduced_times c.desc with
             | Some t -> t
             | None -> Float.infinity
           in
           (c, rt, i))
  in
  let by_reduced =
    List.stable_sort
      (fun (_, a, i) (_, b, j) -> if a = b then compare i j else compare a b)
      contenders
    |> List.filteri (fun i _ -> i < nsurv - npred)
    |> List.map (fun (c, _, _) -> c)
  in
  let taken = List.map (fun (c : Candidate.t) -> c.desc) by_reduced in
  let by_predicted =
    (* [contenders] carries rung-0 rank as its index: lower i = better
       predicted, so space order within the race is already encoded. *)
    List.stable_sort (fun (_, _, i) (_, _, j) -> compare i j) contenders
    |> List.filter (fun ((c : Candidate.t), _, _) -> not (List.mem c.desc taken))
    |> List.filteri (fun i _ -> i < npred)
    |> List.map (fun (c, _, _) -> c)
  in
  let survivors = by_reduced @ by_predicted in
  let survivor_outcomes = Measure.measure_outcomes ?jobs ?cancel engine survivors in
  let survivor_ok =
    List.filter_map
      (fun ((c : Candidate.t), o) -> match o with Ok t -> Some (c, t) | Error _ -> None)
      survivor_outcomes
  in
  (* The answer pool, in space order so time ties settle on the earlier
     candidate regardless of which rung admitted it. *)
  let pool_tbl = Hashtbl.create 64 in
  List.iter
    (fun ((c : Candidate.t), t) -> Hashtbl.replace pool_tbl c.desc (c, t))
    (probe_ok @ survivor_ok);
  let pool =
    List.filter_map (fun (c : Candidate.t) -> Hashtbl.find_opt pool_tbl c.desc) valid
  in
  if pool = [] then
    invalid_arg (app_name ^ ": every probed and raced configuration faulted");
  let winner =
    match Util.Stats.argmin (fun (_, t) -> t) pool with
    | Some (c, t) -> { Measure.cand = c; time_s = t }
    | None -> assert false
  in
  {
    pr_total = n;
    pr_budget = budget;
    pr_probes = probe_descs;
    pr_raced = List.length raced;
    pr_reduced_missing = missing;
    pr_survivors = List.map (fun (c : Candidate.t) -> c.desc) survivors;
    pr_simulated = List.length probes + List.length survivors;
    pr_winner = winner;
    pr_ranked = List.map (fun ((c : Candidate.t), p) -> (c.desc, p)) ranked;
    pr_model = model;
  }

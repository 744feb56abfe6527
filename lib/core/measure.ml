(* Measurement engine: the expensive step of the paper's methodology,
   made parallel, memoized, fault-tolerant and resumable.

   Measuring a configuration means driving the cycle-approximate SM
   simulator through the candidate's [run] thunk — exactly the cost the
   pruning methodology exists to avoid paying for the whole space.  The
   engine adds four things on top of calling the thunk directly:

   - a per-application memoizing cache keyed by the candidate's [desc],
     so any candidate is simulated at most once per engine no matter
     how many passes (exhaustive sweep, Pareto subset, reports) ask for
     its time;
   - parallel bulk measurement over a [Util.Pool] of domains, with
     per-candidate host wall-time bookkeeping;
   - crash isolation: a thunk that throws (pass bug, launch rejection,
     simulator trap, watchdog abort) is recorded in the cache as a
     [Fault.t] — measured-as-failed exactly once, so retries are
     deterministic and one bad candidate cannot poison the sweep;
   - an optional content-addressed result store ([Store]): before
     paying for the simulator, the engine asks the store for the
     candidate's key, and every outcome it does pay for (time or
     fault) is appended as it lands — so across engines, processes and
     serving sessions no (kernel x space x arch) point is ever measured
     twice, and an interrupted sweep resumes by re-running it against
     the same store.

   Determinism: simulated times depend only on the candidate itself
   (each [run] thunk operates on private state — see the domain-safety
   audit in DESIGN.md), and [Pool.map_result] preserves input order, so
   the results are identical whatever [jobs] is. *)

type measured = { cand : Candidate.t; time_s : float }

(* What one measurement settled to: the simulated seconds, or the
   classified fault that ended it. *)
type outcome = (float, Fault.t) result

(* A shared result store together with the content address of every
   candidate the engine may measure ([Store.keys]): where to look before
   running the simulator, and under which key to record what it pays
   for.  Every entry point that measures takes the store as this one
   value. *)
type store_binding = { sb_store : Store.t; sb_key : Candidate.t -> string }

type t = {
  app_name : string;
  lock : Mutex.t;  (* guards every field below *)
  cache : (string, outcome) Hashtbl.t;  (* desc -> settled outcome *)
  host : (string, float) Hashtbl.t;  (* desc -> host seconds spent measuring *)
  mutable runs : int;  (* simulator invocations actually performed *)
  mutable hits : int;  (* measurements answered from the cache *)
  mutable store_hits : int;  (* ...of which answered by the result store *)
  mutable store_misses : int;  (* store consulted, simulator paid anyway *)
  mutable store : store_binding option;
}

let create ~app_name () =
  {
    app_name;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    host = Hashtbl.create 64;
    runs = 0;
    hits = 0;
    store_hits = 0;
    store_misses = 0;
    store = None;
  }

(* Bind a content-addressed result store and its keys. *)
let attach_store t (sb : store_binding) : unit =
  Mutex.protect t.lock (fun () ->
      if t.store <> None then invalid_arg "Measure.attach_store: store already attached";
      t.store <- Some sb)

let store t : store_binding option = Mutex.protect t.lock (fun () -> t.store)

(* ------------------------------------------------------------------ *)
(* Cache lookups                                                       *)
(* ------------------------------------------------------------------ *)

let cached t (c : Candidate.t) : outcome option =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.cache c.desc)

(* Settled outcome of an already-measured candidate.  The cache is the
   single source of truth: asking for a candidate that was never passed
   through [measure_outcomes] is a caller bug (it would otherwise
   silently re-run the simulator and double-count evaluation time), so
   a miss raises — naming the app and the candidate's config key, since
   an anonymous failure is useless in a parallel sweep log. *)
let find_exn t (c : Candidate.t) : outcome =
  match Hashtbl.find_opt t.cache c.desc with
  | Some o -> o
  | None ->
    invalid_arg
      (Printf.sprintf "Measure.time_exn: %s: candidate %S was never measured" t.app_name c.desc)

let outcome_exn t (c : Candidate.t) : outcome =
  Mutex.protect t.lock (fun () ->
      let o = find_exn t c in
      t.hits <- t.hits + 1;
      o)

(* Cached simulated seconds of a successfully measured candidate; a
   candidate that was measured-as-failed raises with its fault. *)
let time_exn t (c : Candidate.t) : float =
  match outcome_exn t c with
  | Ok ts -> ts
  | Error f ->
    invalid_arg
      (Printf.sprintf "Measure.time_exn: %s: candidate %S faulted: %s" t.app_name c.desc
         (Fault.to_string f))

(* ------------------------------------------------------------------ *)
(* Bulk measurement                                                    *)
(* ------------------------------------------------------------------ *)

(* Record one settled outcome under the lock: cache, bookkeeping and
   the result store (when attached). *)
let record t (c : Candidate.t) (o : outcome) (host_s : float) : unit =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.cache c.desc o;
      Hashtbl.replace t.host c.desc host_s;
      t.runs <- t.runs + 1;
      Option.iter (fun sb -> Store.put sb.sb_store ~key:(sb.sb_key c) ~desc:c.desc o) t.store)

(* Measure every candidate of [cands], in parallel over [jobs] domains
   (default [Pool.default_jobs ()]), skipping those already settled in
   the cache or the attached store (faults included).  Returns one (candidate, outcome) pair per
   input, in input order.

   [?cancel] is a cooperative cancellation token checked between
   candidates: once it trips, remaining thunks skip the simulator, and
   if any requested outcome is still unsettled the sweep aborts with
   [Cancel.Cancelled].  Already settled outcomes (cache, store) still
   answer, so an expired deadline over warm data completes instead of
   failing. *)
let measure_outcomes ?jobs ?cancel t (cands : Candidate.t list) : (Candidate.t * outcome) list =
  (* Decide what actually needs the simulator before spawning workers;
     duplicates within one batch collapse to a single run, and the
     result store (when attached) settles candidates any client has
     ever measured without touching the simulator. *)
  let store_binding = store t in
  let from_store (c : Candidate.t) : outcome option =
    match store_binding with
    | None -> None
    | Some sb -> Store.get sb.sb_store (sb.sb_key c)
  in
  let to_run =
    Mutex.protect t.lock (fun () ->
        let batch = Hashtbl.create 16 in
        List.filter
          (fun (c : Candidate.t) ->
            if Hashtbl.mem t.cache c.desc || Hashtbl.mem batch c.desc then begin
              t.hits <- t.hits + 1;
              false
            end
            else
              match from_store c with
              | Some o ->
                Hashtbl.replace t.cache c.desc o;
                t.hits <- t.hits + 1;
                t.store_hits <- t.store_hits + 1;
                false
              | None ->
                if store_binding <> None then t.store_misses <- t.store_misses + 1;
                Hashtbl.replace batch c.desc ();
                true)
          cands)
  in
  let cancelled () =
    match cancel with Some cl -> Cancel.cancelled cl | None -> false
  in
  let results =
    Util.Pool.map_result ?jobs
      (fun (c : Candidate.t) ->
        (* Once the caller's cancellation token tripped, remaining
           thunks skip the simulator: their outcomes are unwanted. *)
        if cancelled () then ()
        else begin
          let t0 = Unix.gettimeofday () in
          let o = Fault.run_candidate c in
          record t c o (Unix.gettimeofday () -. t0)
        end)
      to_run
  in
  (* [Fault.run_candidate] classifies everything a thunk can raise, so
     an [Error] here means the engine itself failed (store I/O, a
     corrupt cache): that is not a per-candidate fault — re-raise. *)
  List.iter (function Error (e, _) -> raise e | Ok () -> ()) results;
  (* A tripped token with outstanding work is a typed abort; with every
     outcome already settled it is a no-op (warm answers are free). *)
  if
    cancelled ()
    && Mutex.protect t.lock (fun () ->
           List.exists (fun (c : Candidate.t) -> not (Hashtbl.mem t.cache c.desc)) cands)
  then raise Cancel.Cancelled;
  Mutex.protect t.lock (fun () ->
      (* Re-read through the cache (not the worker results) so
         duplicates and previously settled candidates resolve
         uniformly. *)
      List.map (fun (c : Candidate.t) -> (c, find_exn t c)) cands)

(* The historical strict interface: measure everything, re-raising the
   first fault in input order as [Fault.Fail] (the pre-fault-tolerance
   abort semantics; also what `--fail-fast` restores).  Returns one
   [measured] per input, in input order. *)
let measure_all ?jobs t (cands : Candidate.t list) : measured list =
  List.map
    (fun ((c : Candidate.t), o) ->
      match o with
      | Ok time_s -> { cand = c; time_s }
      | Error fault -> raise (Fault.Fail { desc = c.desc; fault }))
    (measure_outcomes ?jobs t cands)

(* Bookkeeping accessors. *)
let runs t = Mutex.protect t.lock (fun () -> t.runs)
let hits t = Mutex.protect t.lock (fun () -> t.hits)
let store_hits t = Mutex.protect t.lock (fun () -> t.store_hits)
let store_misses t = Mutex.protect t.lock (fun () -> t.store_misses)

(* Total host wall-clock seconds spent inside [run] thunks.  Under
   parallel measurement this is the summed per-worker time, which can
   exceed elapsed time. *)
let host_time t =
  Mutex.protect t.lock (fun () -> Hashtbl.fold (fun _ s acc -> acc +. s) t.host 0.0)

(* Host seconds per measured candidate, sorted slowest-first. *)
let per_candidate_host t : (string * float) list =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun desc s acc -> (desc, s) :: acc) t.host []
      |> List.sort (fun (_, a) (_, b) -> compare b a))

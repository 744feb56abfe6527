(* Chaos-injection harness for the fault-tolerant tuner.

   The fault tolerance layer ([Fault], [Measure], [Search]) claims that
   a sweep survives misbehaving candidates: crashes are isolated,
   runaway kernels are cut off by the simulator watchdog, corrupt
   passes surface as verifier rejections, and the search still finds
   the optimum among the survivors.  This module *manufactures* those
   misbehaviors deterministically so the claim is testable: given a
   seed and a count, it picks victims from a candidate list and
   replaces their measurement thunks with realistic failures, leaving
   descs, parameters and static metrics untouched (so the Pareto
   geometry of the space is exactly the fault-free one).

   Three failure modes, cycled over the victims:

   - [Throw]:        the thunk raises [Injected] — a stand-in for any
                     bug escaping a measurement worker;
   - [Runaway]:      the thunk really runs the simulator on a kernel
                     whose loop bound was stretched to a billion
                     iterations ([Kir.Mutate.runaway_loop]); only the
                     watchdog budget ends it;
   - [Corrupt_pass]: the thunk compiles through a pass that appends an
                     assignment to an undeclared variable, which the
                     pipeline's per-stage typecheck rejects.

   `gpuopt chaos` drives this over a real application space and checks
   that every injected fault is reported, that the surviving search
   still selects the true optimum, and that a sweep killed partway
   ([kill_and_resume]) resumes through the result store to the
   uninterrupted result. *)

type kind = Throw | Runaway | Corrupt_pass

let kind_name = function
  | Throw -> "throw"
  | Runaway -> "runaway"
  | Corrupt_pass -> "corrupt-pass"

(* What [Throw] victims raise: deliberately not an exception the
   classifier knows, so it exercises the [Worker_crash] catch-all. *)
exception Injected of { desc : string }

let () =
  Printexc.register_printer (function
    | Injected { desc } -> Some (Printf.sprintf "Tuner.Chaos.Injected(%s)" desc)
    | _ -> None)

type injection = {
  inj_index : int;  (* position in the candidate list *)
  inj_desc : string;  (* the victim's config key *)
  inj_kind : kind;
}

(* ------------------------------------------------------------------ *)
(* The injected failure thunks                                         *)
(* ------------------------------------------------------------------ *)

(* A minimal self-contained kernel: accumulate in a register, store one
   word.  The loop variable is *not* used for addressing, so stretching
   the loop bound cannot cause out-of-bounds device accesses — the only
   way the stretched version ends is the watchdog. *)
let tiny_kernel : Kir.Ast.kernel =
  let open Kir.Ast in
  {
    kname = "chaos_tiny";
    scalar_params = [];
    array_params = [ { aname = "out"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Mut ("acc", F32, f 0.0);
        for_ "it" (i 0) (i 4) [ Assign ("acc", v "acc" +: f 1.0) ];
        Store ("out", i 0, v "acc");
      ];
  }

(* Genuinely run the simulator on a livelocked kernel under a small
   explicit budget: a real watchdog abort, end to end, without paying
   for the (generous) default budget.  Compiled per call — the kernel
   is a handful of statements, and per-call compilation keeps the thunk
   safe to run on any worker domain. *)
let runaway_time () : float =
  let stretched = Kir.Mutate.runaway_loop ~iters:1_000_000_000 tiny_kernel in
  let c = Pipeline.lower_opt stretched in
  let dev = Gpu.Device.create ~global_words:4 () in
  let out = Gpu.Device.alloc dev 1 in
  let launch =
    { Gpu.Sim.kernel = c.ptx; grid = (1, 1); block = (32, 1); args = [ ("out", Gpu.Sim.Buf out) ] }
  in
  (Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = 1 }) ~budget:100_000 dev launch).time_s

(* Compile through a pass that corrupts its kernel: the appended
   assignment targets a variable no scope declares, so the pipeline's
   post-pass typecheck rejects the stage ([Pipeline.Pass_failed], which
   classifies as [Verify_rejected]). *)
let corrupt_pass_time () : float =
  let corrupt (k : Kir.Ast.kernel) =
    { k with Kir.Ast.body = k.Kir.Ast.body @ [ Kir.Ast.Assign ("chaos_undefined", Kir.Ast.Flt 0.0) ] }
  in
  let sched =
    {
      Pipeline.kir_passes = [ Pipeline.kir_pass "chaos-corrupt" corrupt ];
      ptx_passes = Pipeline.default_ptx_passes;
    }
  in
  let (_ : Pipeline.compiled) = Pipeline.compile sched tiny_kernel in
  0.0

let faulty_run (k : kind) ~(desc : string) : unit -> float =
  match k with
  | Throw -> fun () -> raise (Injected { desc })
  | Runaway -> runaway_time
  | Corrupt_pass -> corrupt_pass_time

(* The fault each kind settles to, for checking reports: the tag a
   classified injection of this kind must carry. *)
let expected_tag = function
  | Throw -> "crash"
  | Runaway -> "watchdog"
  | Corrupt_pass -> "verify"

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)
(* ------------------------------------------------------------------ *)

(* Replace the measurement thunks of [count] distinct valid candidates
   (chosen by a seeded shuffle, so a given seed always picks the same
   victims) with failures, cycling through the three kinds.  Only the
   [run] thunk changes: desc, params, kernel and static profile are the
   victim's own, so metrics and the Pareto frontier are unaffected.
   Returns the modified list (input order) and the injections in list
   order.

   [?avoid] excludes descs from the victim pool.  Faults that miss the
   Pareto-selected subset provably leave the pruned search's selection
   unchanged (dominance only loses witnesses, and the frontier's
   extreme points fix the quantization grid), so `gpuopt chaos` passes
   the fault-free run's selected descs here to make its strict
   selection checks assertable; the QCheck properties inject anywhere
   and condition on the hit. *)
let inject ~(seed : int) ~(count : int) ?(avoid : string list = []) (cands : Candidate.t list) :
    Candidate.t list * injection list =
  if count < 0 then invalid_arg "Chaos.inject: count must be >= 0";
  let valid_idx =
    List.mapi
      (fun i (c : Candidate.t) -> (i, c.valid && not (List.mem c.desc avoid)))
      cands
    |> List.filter_map (fun (i, ok) -> if ok then Some i else None)
  in
  if count > List.length valid_idx then
    invalid_arg
      (Printf.sprintf "Chaos.inject: %d fault(s) requested but only %d eligible candidate(s)"
         count (List.length valid_idx));
  let a = Array.of_list valid_idx in
  let rng = Util.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  let victims = List.sort compare (Array.to_list (Array.sub a 0 count)) in
  let kinds = [| Throw; Runaway; Corrupt_pass |] in
  let injections =
    List.mapi
      (fun rank idx ->
        let c = List.nth cands idx in
        { inj_index = idx; inj_desc = c.Candidate.desc; inj_kind = kinds.(rank mod 3) })
      victims
  in
  let by_index = List.map (fun inj -> (inj.inj_index, inj)) injections in
  let cands' =
    List.mapi
      (fun i (c : Candidate.t) ->
        match List.assoc_opt i by_index with
        | None -> c
        | Some inj -> { c with run = faulty_run inj.inj_kind ~desc:c.desc })
      cands
  in
  (cands', injections)

(* ------------------------------------------------------------------ *)
(* Kill and resume                                                     *)
(* ------------------------------------------------------------------ *)

(* A deterministic "kill at k": wrap every measurement thunk so that
   the [k]-th one to start trips [cancel].  That thunk still finishes
   and its outcome is kept; thunks not yet started skip the simulator,
   and the sweep aborts with [Cancel.Cancelled].  At one worker exactly
   [k] outcomes settle; with more, the ones already in flight finish
   too. *)
let trip_at ~(k : int) (cancel : Cancel.t) (cands : Candidate.t list) : Candidate.t list =
  let started = Atomic.make 0 in
  List.map
    (fun (c : Candidate.t) ->
      {
        c with
        run =
          (fun () ->
            if Atomic.fetch_and_add started 1 = k - 1 then Cancel.cancel cancel;
            c.run ());
      })
    cands

type resume = {
  rs_cancelled : bool;  (* the killed sweep aborted with [Cancel.Cancelled] *)
  rs_loaded : int;  (* outcomes the reopened store held *)
  rs_resumed : Search.result;  (* the sweep re-run against that store *)
}

(* Kill a sweep of [cands] at its [k]-th measurement, then resume it by
   re-running the sweep against the same result store.  The store is a
   fresh temporary file, private to the call: injected victims keep
   their clean twin's desc and PTX, so their faults must never reach a
   shared store. *)
let kill_and_resume ?jobs ~(app_name : string) ~(k : int) (cands : Candidate.t list) : resume =
  let file = Filename.temp_file "gpuopt-chaos-" ".store" in
  let sb_key = Store.keys ~app_name ~scale:"full" cands in
  let with_store f =
    let store = Store.open_ ~file () in
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () -> f { Measure.sb_store = store; sb_key })
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let cancel = Cancel.create () in
      let rs_cancelled =
        with_store (fun store ->
            match Search.run ?jobs ~store ~cancel ~app_name (trip_at ~k cancel cands) with
            | (_ : Search.result) -> false
            | exception Cancel.Cancelled -> true)
      in
      with_store (fun store ->
          let rs_resumed = Search.run ?jobs ~store ~app_name cands in
          { rs_cancelled; rs_loaded = Store.loaded store.sb_store; rs_resumed }))

(* ------------------------------------------------------------------ *)
(* The self-test                                                       *)
(* ------------------------------------------------------------------ *)

(* The fault-tolerance claim, checked end to end on [cands]: a
   fault-free baseline sweep; a sweep with [count] seeded injections
   (drawn off the baseline's Pareto-selected subset unless
   [hit_frontier]); then the injected sweep killed halfway and resumed
   through a fresh store.  Returns the narrative (baseline, victims,
   fault table) and the named checks in order; `gpuopt chaos` and the
   bench's chaos exhibit both print these. *)
let self_test ?jobs ~(app_name : string) ~(seed : int) ~(count : int) ~(hit_frontier : bool)
    (cands : Candidate.t list) : string * (string * bool) list =
  let buf = Buffer.create 1024 in
  let say fmt = Printf.bprintf buf fmt in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  let fault_key ((c : Candidate.t), f) = (c.desc, Fault.encode f) in
  let times ms = List.map (fun (m : Search.measured) -> (m.cand.desc, m.time_s)) ms in
  (* Fault-free baseline: the ground truth the injected runs must
     still recover on the surviving part of the space. *)
  let baseline = Search.run ?jobs ~app_name cands in
  say "baseline: %d valid configurations, optimum %s (%.4f ms)\n" baseline.space_size
    baseline.best.cand.desc
    (baseline.best.time_s *. 1000.0);
  (* Faults that miss the frontier provably leave the pruned selection
     unchanged, which is what the strict checks below assert. *)
  let avoid =
    if hit_frontier then []
    else List.map (fun ((c : Candidate.t), _) -> c.desc) baseline.selected
  in
  let injected_cands, injections = inject ~seed ~count ~avoid cands in
  List.iter
    (fun inj -> say "inject %-12s -> %s\n" (kind_name inj.inj_kind) inj.inj_desc)
    injections;
  let r = Search.run ?jobs ~app_name injected_cands in
  say "\n%d fault(s) recorded:\n%s\n" (List.length r.faults) (Report.fault_table r.faults);
  let injected_descs = List.sort compare (List.map (fun i -> i.inj_desc) injections) in
  check "every injected candidate is reported as a fault"
    (List.sort compare (List.map (fun ((c : Candidate.t), _) -> c.desc) r.faults)
    = injected_descs);
  check "each fault carries its injected kind's tag"
    (List.for_all
       (fun inj ->
         match List.find_opt (fun ((c : Candidate.t), _) -> c.desc = inj.inj_desc) r.faults with
         | Some (_, f) -> Fault.tag f = expected_tag inj.inj_kind
         | None -> false)
       injections);
  (* The true optimum of the surviving space, from the baseline's
     measurements (deterministic, so exact comparison is fair). *)
  (match
     Util.Stats.argmin
       (fun (m : Search.measured) -> m.time_s)
       (List.filter
          (fun (m : Search.measured) -> not (List.mem m.cand.desc injected_descs))
          baseline.exhaustive)
   with
  | None -> check "some candidate survived" false
  | Some sb ->
    check "exhaustive optimum over survivors is exact"
      (r.best.cand.desc = sb.cand.desc && r.best.time_s = sb.time_s));
  if hit_frontier then
    say "(frontier hits allowed: optimum on curve: %s)\n"
      (if r.optimum_selected then "yes" else "no")
  else begin
    let sel_descs (res : Search.result) =
      List.map (fun ((c : Candidate.t), _) -> c.desc) res.selected
    in
    check "faults off the frontier leave the selection unchanged"
      (sel_descs r = sel_descs baseline);
    check "pruned search still picks the fault-free choice"
      (r.selected_best.cand.desc = baseline.selected_best.cand.desc
      && r.selected_best.time_s = baseline.selected_best.time_s
      && r.optimum_selected = baseline.optimum_selected)
  end;
  (* Kill-and-resume: stop the injected sweep after half the space,
     re-run it against the same store, and demand the merged result
     equals the uninterrupted one. *)
  let kr = kill_and_resume ?jobs ~app_name ~k:(max 1 (r.space_size / 2)) injected_cands in
  let resumed = kr.rs_resumed in
  check "sweep is cancelled at its k-th measurement" kr.rs_cancelled;
  check "resumed sweep skips the stored measurements"
    (resumed.engine.measure_runs = r.space_size - kr.rs_loaded);
  check "resumed result equals the uninterrupted one"
    (times resumed.exhaustive = times r.exhaustive
    && List.map fault_key resumed.faults = List.map fault_key r.faults
    && resumed.best.cand.desc = r.best.cand.desc
    && resumed.best.time_s = r.best.time_s
    && resumed.selected_best.cand.desc = r.selected_best.cand.desc
    && resumed.selected_eval_time = r.selected_eval_time
    && resumed.reduction = r.reduction);
  (Buffer.contents buf, List.rev !checks)

(* ------------------------------------------------------------------ *)
(* Wire-level chaos: misbehaving clients for the tuning daemon         *)
(* ------------------------------------------------------------------ *)

(* Where [inject] manufactures faulty *candidates*, [Net] manufactures
   faulty *clients*: seeded strikes against a live daemon socket that
   exercise every way a peer can misbehave on the wire.  Each strike is
   a complete connect-misbehave-disconnect episode; the daemon's
   contract is that none of them crash it, hang a connection worker
   past its I/O timeout, or corrupt the reply stream of well-behaved
   clients running concurrently.  The `chaos_net` bench drives these
   between honest requests and asserts availability.

   The module speaks raw [Unix] sockets on purpose — routing strikes
   through [Serve]'s client helpers would let the client library's own
   robustness (retries, EINTR handling) soften the blow. *)
module Net = struct
  type fault =
    | Torn_frame  (* send a strict prefix of a frame, then close *)
    | Byte_flip  (* flip one payload byte, then await the verdict *)
    | Slow_loris  (* drip bytes slower than the server's I/O timeout *)
    | Disconnect_mid_reply  (* valid request, vanish before the reply *)

  let fault_name = function
    | Torn_frame -> "torn-frame"
    | Byte_flip -> "byte-flip"
    | Slow_loris -> "slow-loris"
    | Disconnect_mid_reply -> "disconnect-mid-reply"

  let all_faults = [ Torn_frame; Byte_flip; Slow_loris; Disconnect_mid_reply ]

  (* Seeded strike schedule: same seed, same faults in the same order. *)
  let plan ~(seed : int) ~(count : int) : fault list =
    if count < 0 then invalid_arg "Chaos.Net.plan: count must be >= 0";
    let rng = Util.Rng.create seed in
    List.init count (fun _ -> List.nth all_faults (Util.Rng.int rng (List.length all_faults)))

  let connect ~(socket : string) : Unix.file_descr =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let rec write_all fd (s : string) pos len =
    if len > 0 then begin
      match Unix.write_substring fd s pos len with
      | n -> write_all fd s (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
    end

  (* Wait up to [timeout_s] for the server's reaction to a strike:
     a complete reply frame, a close, or silence. *)
  let await_reaction ?(timeout_s = 10.0) fd : [ `Reply of string | `Closed | `Silent ] =
    let chunk = Bytes.create 65536 in
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec loop buf =
      match Proto.peek_frame buf ~pos:0 with
      | `Frame (payload, _) -> `Reply payload
      | `Error _ -> `Closed  (* a garbled reply counts as a dead stream *)
      | `Need _ ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then `Silent
        else (
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> `Silent
          | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> `Closed
            | n -> loop (buf ^ Bytes.sub_string chunk 0 n)
            | exception Unix.Unix_error _ -> `Closed)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop buf)
    in
    loop ""

  (* Execute one strike against [socket], carrying [payload] (an
     encoded request) as ammunition.  Returns a short note describing
     what the server was observed to do — the bench logs it and then
     independently verifies the daemon still answers pings.  Never
     raises on wire errors: the server dropping us mid-strike is a
     legitimate (often the desired) reaction. *)
  let strike ?(loris_interval_s = 0.3) ?(loris_max_bytes = 8) ~(rng : Util.Rng.t)
      ~(socket : string) ~(payload : string) (f : fault) : string =
    let frame = Proto.frame payload in
    let flen = String.length frame in
    match f with
    | Torn_frame ->
      (* The server is left holding a partial frame; its only correct
         move is to wait, time out, and drop the connection. *)
      let n = 1 + Util.Rng.int rng (flen - 1) in
      let fd = connect ~socket in
      (try write_all fd frame 0 n with Unix.Unix_error _ -> ());
      close_quietly fd;
      Printf.sprintf "tore frame after %d/%d bytes" n flen
    | Byte_flip ->
      (* Corrupt one byte of the JSON payload (the length prefix stays
         honest, so the server reads a complete frame and must answer
         with a typed protocol/validation error, not die parsing). *)
      let b = Bytes.of_string frame in
      let pos = 4 + Util.Rng.int rng (flen - 4) in
      let bit = Util.Rng.int rng 8 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let fd = connect ~socket in
      let reaction =
        try
          write_all fd (Bytes.to_string b) 0 flen;
          await_reaction fd
        with Unix.Unix_error _ -> `Closed
      in
      close_quietly fd;
      Printf.sprintf "flipped bit %d of byte %d: %s" bit pos
        (match reaction with
        | `Reply _ -> "typed error reply"
        | `Closed -> "connection dropped"
        | `Silent -> "no reaction")
    | Slow_loris ->
      (* Drip bytes slower than the server's I/O timeout.  A hardened
         server cuts us off (write fails or read sees EOF) instead of
         pinning a worker for the full frame. *)
      let fd = connect ~socket in
      let sent = ref 0 in
      (try
         while !sent < min loris_max_bytes flen do
           write_all fd frame !sent 1;
           incr sent;
           Unix.sleepf loris_interval_s
         done
       with Unix.Unix_error _ -> ());
      let reaction = await_reaction ~timeout_s:2.0 fd in
      close_quietly fd;
      Printf.sprintf "dripped %d bytes at %.1fs intervals: %s" !sent loris_interval_s
        (match reaction with
        | `Reply _ -> "unexpected reply"
        | `Closed -> "server cut the connection"
        | `Silent -> "still waiting at probe end")
    | Disconnect_mid_reply ->
      (* A complete, valid request — then vanish.  The server's reply
         write hits a dead peer (EPIPE); with SIGPIPE ignored this
         must be a non-event. *)
      let fd = connect ~socket in
      (try write_all fd frame 0 flen with Unix.Unix_error _ -> ());
      close_quietly fd;
      "sent full request, closed before reading reply"
end

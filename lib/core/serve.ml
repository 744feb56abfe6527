(* The tuning service: a long-running daemon that answers tune / explore
   / lint requests over the [Proto] wire protocol, backed by the
   content-addressed result store ([Store]).

   The paper's premise is that exhaustive measurement is too expensive
   to repeat; the daemon makes that operational.  Every measurement a
   request triggers lands in the store, so any client asking about the
   same (kernel x space x arch) point — in this process or the next —
   is answered from disk.  A warm request over an already-measured
   space touches the simulator zero times.

   Layering.  This module knows nothing about the concrete applications:
   a [resolver], built by the binary from [Apps.Registry], maps an
   (app, scale) pair to its candidate list and its precomputed store
   keys.  Everything below the resolver is the existing machinery —
   [Search] for the sweeps, [Measure] (with the store bound) for
   memoized parallel measurement over [Util.Pool] domains, [Chaos] for
   fault injection, [Fault] for the taxonomy.

   Batching and sharding.  Connections are accepted by a select loop
   and fanned out to a small pool of connection-worker domains; each
   request's measurements are then sharded across [Util.Pool] worker
   domains by [Measure.measure_outcomes] exactly as in the CLI, with
   duplicate candidates collapsed per batch and already-known points
   answered from the store before any worker spawns (a fully warm batch
   costs no domain at all, see [Util.Pool.map_result]).

   Chaos-flagged requests deliberately BYPASS the store: an injected
   fault is a property of the injection, not of the candidate, and
   recording it under the candidate's content address would poison
   every later honest request ("store poisoning").

   Robustness: [handle_frame] is total.  Unparseable frames and
   malformed messages produce [Error_r Protocol_error]; unknown apps
   and unsatisfiable parameters produce typed errors; a handler crash
   is caught and answered as [Server_error].  No input bytes can take
   the daemon down. *)

(* ------------------------------------------------------------------ *)
(* Resolver: the daemon's view of the application registry             *)
(* ------------------------------------------------------------------ *)

type resolved_space = {
  sp_cands : Candidate.t list;
  sp_store_key : Candidate.t -> string;
      (* the space's [Store.keys], built once per (app, scale, arch), so
         a warm request looks its keys up instead of re-rendering PTX *)
  sp_reduced : Candidate.t list Lazy.t;
      (* the app's reduced-shape (quick) space on the same arch — the
         racing rung of a predict-flagged explore; lazy because most
         requests never ask for it *)
}

type resolver = {
  rv_apps : string list;  (* known application names, for error text *)
  rv_space :
    app:string ->
    scale:Proto.scale ->
    arch:string ->
    (resolved_space, Proto.error_code * string) result;
      (* [arch] is a registry machine name; an unknown one is a
         [Bad_request] naming the known models *)
  rv_lint :
    app:string -> config:string option -> (string * bool, Proto.error_code * string) result;
      (* lint report text and whether it contains errors *)
}

(* Requests that omit the arch field target the default machine. *)
let default_arch_name = Gpu.Arch.g80.Gpu.Arch.name

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  store : Store.t;
  resolver : resolver;
  jobs : int option;  (* measurement worker domains per request *)
  lock : Mutex.t;
  mutable requests : int;
  mutable errors : int;
  mutable runs : int;  (* simulator measurements performed *)
  mutable store_hits : int;
  mutable store_misses : int;
  stop : bool Atomic.t;
      (* set by a Shutdown request or a SIGTERM; atomic (not under
         [lock]) so the signal handler installed by [listen
         ~on_sigterm:true] can flip it without risking a deadlock on a
         mutex the interrupted thread holds *)
}

let create ?jobs ~(store : Store.t) (resolver : resolver) : t =
  {
    store;
    resolver;
    jobs;
    lock = Mutex.create ();
    requests = 0;
    errors = 0;
    runs = 0;
    store_hits = 0;
    store_misses = 0;
    stop = Atomic.make false;
  }

let stopping t = Atomic.get t.stop
let request_stop t = Atomic.set t.stop true

let note_engine t (e : Search.engine_stats) : unit =
  Mutex.protect t.lock (fun () ->
      t.runs <- t.runs + e.measure_runs;
      t.store_hits <- t.store_hits + e.store_hits;
      t.store_misses <- t.store_misses + e.store_misses)

let stats t : Proto.server_stats =
  let entries = Store.entries t.store in
  Mutex.protect t.lock (fun () ->
      {
        Proto.sv_requests = t.requests;
        sv_errors = t.errors;
        sv_runs = t.runs;
        sv_store_hits = t.store_hits;
        sv_store_misses = t.store_misses;
        sv_store_entries = entries;
      })

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let row_of_measured (m : Search.measured) : Proto.measured_row =
  { Proto.m_desc = m.cand.desc; m_time_s = m.time_s }

(* The server's store together with the space's precomputed keys. *)
let bound t (sp : resolved_space) : Measure.store_binding =
  { Measure.sb_store = t.store; sb_key = sp.sp_store_key }

let descs_of sel = List.map (fun ((c : Candidate.t), _) -> c.desc) sel

let handle_tune t ~app ~scale ~(arch : string option) ~(cancel : Cancel.t option) :
    Proto.response =
  let arch = Option.value arch ~default:default_arch_name in
  match t.resolver.rv_space ~app ~scale ~arch with
  | Error (e_code, e_msg) -> Error_r { e_code; e_msg }
  | Ok sp ->
    let r =
      Search.tune_full ?jobs:t.jobs ?cancel ~store:(bound t sp) ~app_name:app sp.sp_cands
    in
    note_engine t r.tune_engine;
    Tune_r
      {
        t_app = app;
        t_arch = arch;
        t_space_size = r.tune_space_size;
        t_chosen = row_of_measured r.chosen;
        t_selected = descs_of r.considered;
        t_runs = r.tune_engine.measure_runs;
        t_store_hits = r.tune_engine.store_hits;
      }

let handle_explore t ~app ~scale ~(chaos : Proto.chaos_spec option) ~(arch : string option)
    ~(predict : bool) ~(cancel : Cancel.t option) : Proto.response =
  let arch = Option.value arch ~default:default_arch_name in
  match t.resolver.rv_space ~app ~scale ~arch with
  | Error (e_code, e_msg) -> Error_r { e_code; e_msg }
  | Ok sp ->
    let r =
      match chaos with
      | None ->
        (* The model-driven race runs on the server's default plan with
           no rule database: rule discovery is a per-store artifact and
           pulling it in here would make replies depend on superopt
           state.  Probes and survivors flow through the same
           store-bound engine as the exhaustive sweep, so a warm store
           answers the race for free. *)
        let pspec =
          if predict then
            Some (Prune.spec ~reduced:(Lazy.force sp.sp_reduced) ())
          else None
        in
        Search.run ?jobs:t.jobs ?cancel ?predict:pspec ~store:(bound t sp) ~app_name:app
          sp.sp_cands
      | Some { ch_seed; ch_count } ->
        (* Injected faults are synthetic: measuring them through the
           store would record them under healthy candidates' content
           addresses.  Chaos sweeps therefore run store-less (and
           ignore [predict]: a race over injected faults would compare
           synthetic times). *)
        let cands, _injections = Chaos.inject ~seed:ch_seed ~count:ch_count sp.sp_cands in
        Search.run ?jobs:t.jobs ?cancel ~app_name:app cands
    in
    note_engine t r.engine;
    Explore_r
      {
        x_app = app;
        x_arch = arch;
        x_space_size = r.space_size;
        x_invalid = r.invalid;
        x_best = row_of_measured r.best;
        x_selected_best = row_of_measured r.selected_best;
        x_selected = descs_of r.selected;
        x_exhaustive = List.map row_of_measured r.exhaustive;
        x_reduction = r.reduction;
        x_optimum_selected = r.optimum_selected;
        x_faults =
          List.map
            (fun ((c : Candidate.t), f) ->
              { Proto.f_desc = c.desc; f_fault = Fault.encode f })
            r.faults;
        x_runs = r.engine.measure_runs;
        x_store_hits = r.engine.store_hits;
        x_prune =
          (match r.prune with
          | None -> None
          | Some o ->
            Some
              {
                Proto.p_total = o.Prune.pr_total;
                p_probes = List.length o.Prune.pr_probes;
                p_raced = o.Prune.pr_raced;
                p_simulated = o.Prune.pr_simulated;
                p_winner = row_of_measured o.Prune.pr_winner;
                p_rank = Option.value (Prune.rank_of o r.best.cand.desc) ~default:0;
                p_recovered = Prune.recovered o ~best:r.best;
                p_model = Predict.digest o.Prune.pr_model;
              });
      }

(* Dispatch one decoded request.  Total: anything the machinery throws
   settles as a typed error response.  A request carrying [deadline_ms]
   runs under a [Cancel] token; a sweep the token aborts answers with
   the typed [Deadline_exceeded] error rather than the generic server
   error — clients can tell "too slow" from "broken".  A warm sweep
   never trips the token (every point answers from cache/store), so a
   deadline only cuts off work that would actually run the simulator. *)
let handle t (req : Proto.request) : Proto.response =
  Mutex.protect t.lock (fun () -> t.requests <- t.requests + 1);
  let resp =
    try
      match req with
      | Proto.Ping -> Proto.Pong
      | Proto.Stats -> Stats_r (stats t)
      | Proto.Shutdown ->
        request_stop t;
        Bye
      | Proto.Tune { app; scale; arch; deadline_ms } ->
        let cancel = Option.map Cancel.with_deadline_ms deadline_ms in
        handle_tune t ~app ~scale ~arch ~cancel
      | Proto.Explore { app; scale; chaos; arch; predict; deadline_ms } ->
        let cancel = Option.map Cancel.with_deadline_ms deadline_ms in
        handle_explore t ~app ~scale ~chaos ~arch ~predict ~cancel
      | Proto.Lint { app; config } -> (
        match t.resolver.rv_lint ~app ~config with
        | Ok (l_report, l_errors) -> Lint_r { l_report; l_errors }
        | Error (e_code, e_msg) -> Error_r { e_code; e_msg })
    with
    | Cancel.Cancelled ->
      Error_r
        {
          e_code = Deadline_exceeded;
          e_msg = "deadline expired before the sweep settled; completed measurements are stored";
        }
    | Invalid_argument msg -> Error_r { e_code = Bad_request; e_msg = msg }
    | e -> Error_r { e_code = Server_error; e_msg = Printexc.to_string e }
  in
  (match resp with
  | Error_r _ -> Mutex.protect t.lock (fun () -> t.errors <- t.errors + 1)
  | _ -> ());
  resp

(* One frame in, one frame payload out — the seam the protocol tests
   drive without a socket. *)
let handle_frame t (payload : string) : string =
  match Proto.decode_request payload with
  | Ok req -> Proto.encode_response (handle t req)
  | Error de ->
    Mutex.protect t.lock (fun () ->
        t.requests <- t.requests + 1;
        t.errors <- t.errors + 1);
    Proto.encode_response
      (Error_r { e_code = Protocol_error; e_msg = Proto.decode_error_to_string de })

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* A client that vanishes between request and reply turns the reply
   write into a SIGPIPE, which by default kills the whole process.
   Ignoring it downgrades the signal to the EPIPE error the write paths
   already handle.  Idempotent; called by [listen] and exposed for
   client-side binaries (their request writes can race a daemon
   restart). *)
let ignore_sigpipe () : unit =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let rec write_all fd (s : string) pos len =
  if len > 0 then begin
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
  end

let send_frame fd (payload : string) : unit =
  let f = Proto.frame payload in
  write_all fd f 0 (String.length f)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [Unix.read] with uniform EINTR handling: a signal landing mid-read
   (SIGCHLD from a forked bench daemon, a profiler tick) retries
   instead of masquerading as a closed connection.  This matches the
   accept loop's EINTR treatment. *)
let rec read_retry fd chunk pos len : int =
  match Unix.read fd chunk pos len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd chunk pos len

(* Wait until [fd] is readable or [deadline] (absolute) passes, in
   small select slices so the wait notices a server stop promptly. *)
let wait_readable ~(stop : unit -> bool) ~(deadline : float) fd :
    [ `Readable | `Timeout | `Stop ] =
  let slice_s = 0.1 in
  let rec loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then `Timeout
    else
      (* Data already in flight wins over a stop: a request sent before
         the drain began still deserves its reply. *)
      match Unix.select [ fd ] [] [] (Float.min slice_s remaining) with
      | [], _, _ -> if stop () then `Stop else loop ()
      | _ -> `Readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> if stop () then `Stop else loop ()
  in
  loop ()

(* Serve one connection until the peer closes it (or poisons the
   stream).  Frames are answered in order; an oversized length prefix
   is unrecoverable — the offset of the next frame is unknowable — so
   it draws one final protocol error and the connection drops.

   Reads are bounded by a per-frame deadline: each complete frame buys
   the client another [io_timeout_s] to deliver the next one.  The
   deadline is NOT reset by partial reads, so a slow-loris client
   dripping one byte per interval cannot pin a worker domain — it is
   cut off [io_timeout_s] after its frame started, however steadily it
   drips.  The wait also aborts when the server is stopping, so
   graceful drain is bounded by the in-flight [handle] calls, not by
   clients holding connections open. *)
let serve_connection ?(io_timeout_s = 30.0) t fd : unit =
  let chunk = Bytes.create 65536 in
  let buf = ref "" in
  let closed = ref false in
  let frame_deadline = ref (Unix.gettimeofday () +. io_timeout_s) in
  while not !closed do
    match Proto.peek_frame !buf ~pos:0 with
    | `Frame (payload, next) ->
      buf := String.sub !buf next (String.length !buf - next);
      let reply = handle_frame t payload in
      (try send_frame fd reply with Unix.Unix_error _ -> closed := true);
      (* During a drain, finish at a frame boundary: requests already
         on the wire were answered above; a chatty client cannot hold
         the drain open by sending more. *)
      if stopping t then closed := true;
      frame_deadline := Unix.gettimeofday () +. io_timeout_s
    | `Error fe ->
      Mutex.protect t.lock (fun () -> t.errors <- t.errors + 1);
      (try
         send_frame fd
           (Proto.encode_response
              (Error_r { e_code = Protocol_error; e_msg = Proto.frame_error_to_string fe }))
       with Unix.Unix_error _ -> ());
      closed := true
    | `Need _ -> (
      match wait_readable ~stop:(fun () -> stopping t) ~deadline:!frame_deadline fd with
      | `Timeout | `Stop -> closed := true
      | `Readable -> (
        match read_retry fd chunk 0 (Bytes.length chunk) with
        | 0 -> closed := true  (* EOF; a truncated tail has no one to answer *)
        | n -> buf := !buf ^ Bytes.sub_string chunk 0 n
        | exception Unix.Unix_error _ -> closed := true))
  done;
  close_quietly fd

(* Accept loop: bind a Unix-domain socket, fan connections out to
   [conn_workers] domains, stop when a Shutdown request flips the flag
   (checked every [poll_s] via select timeout).  Returns once every
   worker has drained.

   Admission control: the accept queue is bounded at [max_queue].  A
   connection arriving while the queue is full is answered immediately
   with a typed [Overloaded_r { retry_after_ms }] frame and closed —
   load sheds at the door with an explicit signal the client can back
   off on, instead of piling up connections until memory or patience
   runs out.

   [on_sigterm] installs a SIGTERM handler that flips the stop flag:
   the accept loop closes, queued connections finish their in-flight
   frames (idle waits abort, see [serve_connection]), workers drain,
   and [listen] returns — a graceful drain rather than mid-sweep
   death.  Off by default so library users (tests, benches that manage
   their own signals) keep process-global state untouched. *)
let listen ?(conn_workers = 4) ?(backlog = 64) ?(poll_s = 0.2) ?(max_queue = 128)
    ?(io_timeout_s = 30.0) ?(retry_after_ms = 200) ?(on_sigterm = false) t
    ~(socket : string) () : unit =
  ignore_sigpipe ();
  if on_sigterm && not Sys.win32 then
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop t));
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket);
  Unix.listen sock backlog;
  let q : Unix.file_descr Queue.t = Queue.create () in
  let qlock = Mutex.create () in
  let qcond = Condition.create () in
  (* Next connection to serve; None once the stop flag is up and the
     queue has drained. *)
  let pop () : Unix.file_descr option =
    Mutex.lock qlock;
    let rec wait () =
      if not (Queue.is_empty q) then begin
        let fd = Queue.pop q in
        Mutex.unlock qlock;
        Some fd
      end
      else if stopping t then begin
        Mutex.unlock qlock;
        None
      end
      else begin
        Condition.wait qcond qlock;
        wait ()
      end
    in
    wait ()
  in
  (* Best-effort shed: one Overloaded frame, then close.  The client
     may already be gone — every failure path just drops the fd. *)
  let shed fd =
    (try send_frame fd (Proto.encode_response (Overloaded_r { o_retry_after_ms = retry_after_ms }))
     with Unix.Unix_error _ | Sys_error _ -> ());
    close_quietly fd
  in
  let workers =
    List.init (max 1 conn_workers) (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match pop () with
              | None -> ()
              | Some fd ->
                serve_connection ~io_timeout_s t fd;
                loop ()
            in
            loop ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock qlock;
      Condition.broadcast qcond;
      Mutex.unlock qlock;
      List.iter Domain.join workers;
      (* Whatever is still queued after the drain gets the shed reply
         rather than a silent close. *)
      Mutex.protect qlock (fun () ->
          Queue.iter shed q;
          Queue.clear q);
      close_quietly sock;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      while not (stopping t) do
        match Unix.select [ sock ] [] [] poll_s with
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept sock with
          | fd, _ ->
            let overloaded =
              Mutex.protect qlock (fun () ->
                  if Queue.length q >= max_queue then true
                  else begin
                    Queue.push fd q;
                    Condition.signal qcond;
                    false
                  end)
            in
            if overloaded then shed fd
          | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

let connect ~(socket : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     close_quietly fd;
     raise e);
  fd

let read_frame fd : (string, string) result =
  let chunk = Bytes.create 65536 in
  let rec loop buf =
    match Proto.peek_frame buf ~pos:0 with
    | `Frame (payload, _) -> Ok payload
    | `Error fe -> Error (Proto.frame_error_to_string fe)
    | `Need need -> (
      match read_retry fd chunk 0 (Bytes.length chunk) with
      | 0 -> (
        match Proto.at_eof ~pending:(String.length buf) ~need with
        | Some fe -> Error (Proto.frame_error_to_string fe)
        | None -> Error "connection closed before any reply")
      | n -> loop (buf ^ Bytes.sub_string chunk 0 n))
  in
  loop ""

(* One request/response exchange on an open connection.  A failed send
   still drains the socket first: a server that answered-and-closed
   before our write landed (an overload shed at the door) left its
   reply buffered in the socket, and that typed reply beats a generic
   transport error. *)
let rpc fd (req : Proto.request) : (Proto.response, string) result =
  let decode payload =
    match Proto.decode_response payload with
    | Ok r -> Ok r
    | Error de -> Error (Proto.decode_error_to_string de)
  in
  match send_frame fd (Proto.encode_request req) with
  | exception Unix.Unix_error (e, _, _) -> (
    match read_frame fd with
    | Ok payload -> decode payload
    | Error _ -> Error ("send: " ^ Unix.error_message e))
  | () -> (
    match read_frame fd with
    | Error _ as e -> e
    | Ok payload -> decode payload)

let with_client ~(socket : string) (f : Unix.file_descr -> 'a) : 'a =
  let fd = connect ~socket in
  Fun.protect ~finally:(fun () -> close_quietly fd) (fun () -> f fd)

let call_once ~(socket : string) (req : Proto.request) : (Proto.response, string) result =
  match with_client ~socket (fun fd -> rpc fd req) with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error ("connect: " ^ Unix.error_message e)

(* Connect, exchange one message, disconnect.  Connection failures
   settle as [Error] — callers polling a daemon that is still coming up
   rely on this.

   [retries] > 0 adds client resilience: transport errors (refused
   connect, dropped connection, torn reply) and typed [Overloaded_r]
   sheds are retried with jittered exponential backoff.  Retrying is
   safe because requests are read-only or idempotent: a tune/explore
   that half-ran before the wire died left its measurements under
   content-addressed keys, so the retry completes from the store rather
   than repeating work.  The jitter stream is seeded from the request
   itself — the same call sequence backs off identically run to run,
   keeping benches deterministic.  An [Overloaded_r] reply's
   [retry_after_ms] floors the backoff for that attempt; with no
   retries left it is returned as-is so the caller sees the typed
   shed. *)
let call ?(retries = 0) ?(retry_base_ms = 50) ~(socket : string) (req : Proto.request) :
    (Proto.response, string) result =
  if retries <= 0 then call_once ~socket req
  else begin
    let rng = Util.Rng.create (Hashtbl.hash (socket, Proto.encode_request req, retries)) in
    let backoff attempt ~(floor_ms : int) =
      let base = retry_base_ms * (1 lsl min attempt 10) in
      let jittered = base + Util.Rng.int rng (max 1 base) in
      Unix.sleepf (float_of_int (max floor_ms jittered) /. 1000.0)
    in
    let rec go attempt =
      match call_once ~socket req with
      | Ok (Proto.Overloaded_r { o_retry_after_ms }) as r ->
        if attempt >= retries then r
        else begin
          backoff attempt ~floor_ms:o_retry_after_ms;
          go (attempt + 1)
        end
      | Ok _ as r -> r
      | Error _ as r ->
        if attempt >= retries then r
        else begin
          backoff attempt ~floor_ms:0;
          go (attempt + 1)
        end
    in
    go 0
  end

(* Poll until the daemon answers a ping (bounded); used by everything
   that forks a server and must not race its bind. *)
let wait_ready ?(timeout_s = 10.0) ~(socket : string) () : bool =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    match call ~socket Proto.Ping with
    | Ok Proto.Pong -> true
    | _ ->
      if Unix.gettimeofday () >= deadline then false
      else begin
        (try ignore (Unix.select [] [] [] 0.05)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
  in
  loop ()

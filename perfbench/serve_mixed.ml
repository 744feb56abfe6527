(* The serve-mixed workload: the `gpuopt serve` daemon in a child
   process on a fresh store (2 connection workers, 1 measurement job),
   driven by one closed-loop connection from this process.

   One connection, not two: the warm stream holds predict-explores,
   which are compute, so two busy connections keep both cores of a
   2-core host busy, and then any other load on the host (one spinning
   process is enough) stretches every latency by 1.9x.  With one request
   in flight the workload needs one core, as the other two workloads do.

   The runner and the daemon run pinned to one CPU ([pin_cpu]) with
   taskset(1), and a run fails if it cannot pin.  A request then hands
   the CPU from client to daemon and back on the same core; unpinned,
   each hand-off wakes the other core, and on a virtual machine whose
   host is busy that wake-up alone can stretch a run's wall time by
   half, so unpinned figures are not comparable with pinned ones.

   A run is a number of rounds.  Each round starts a daemon on a fresh
   store and warms the g80 quick spaces of all four apps, for plain and
   predict explores (set-up); then the connection sends one round's
   seeded schedule ([schedule]): the six cold requests, one cp lint
   and the warm requests.  It sends its next request only when the
   previous reply is in.  No chaos requests. *)

module P = Tuner.Proto
module S = Tuner.Serve

let work_dir = ".perfbench"
let gpuopt = "_build/default/bin/gpuopt.exe"
let apps = [ "matmul"; "cp"; "sad"; "mri" ]

(* A cold request is the first explore of an (app, arch) the daemon has
   not yet measured: matmul, cp and mri on wide32 and fpga_soft.  sad is
   left out: its cold explores take 2-6 s each, and their heap peaks
   moved the daemon's peak RSS and the warm tail by a fifth from run to
   run. *)
let cold_targets =
  List.concat_map
    (fun arch -> List.map (fun app -> (app, arch)) [ "matmul"; "cp"; "mri" ])
    [ "wide32"; "fpga_soft" ]

(* Lint requests per round, and warm requests per cold or lint request:
   32 makes the warm class 32/33, about 97%, of the stream. *)
let lints = 1
let warm_per_heavy = 32

(* Budget seconds per round; a round's timed phase takes a little less
   on a 2-vCPU x86-64 VM. *)
let round_s = 6

let rounds_for ~seconds = max 1 (seconds / round_s)

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; store : string }

let remove f = try Sys.remove f with Sys_error _ -> ()

let explore ?arch ?(predict = false) app =
  P.Explore { app; scale = P.Quick; chaos = None; arch; predict; deadline_ms = None }

(* The CPU both processes run on. *)
let pin_cpu = "0"

(* Pin this process (and every thread and domain it starts later) to
   [pin_cpu], or fail the run. *)
let pin_self () : unit =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let ok =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        match
          Unix.create_process "taskset"
            [| "taskset"; "-a"; "-p"; "-c"; pin_cpu; string_of_int (Unix.getpid ()) |]
            Unix.stdin devnull devnull
        with
        | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
        | exception Unix.Unix_error _ -> false)
  in
  if not ok then failwith ("serve-mixed runs only pinned, and taskset could not pin it to CPU " ^ pin_cpu)

let spawn (k : int) : daemon =
  let socket = Filename.concat work_dir (Printf.sprintf "d%d.sock" k) in
  let store = Filename.concat work_dir (Printf.sprintf "d%d.store" k) in
  remove socket;
  remove store;
  let log =
    Unix.openfile (Filename.concat work_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        let argv =
          [ "taskset"; "-c"; pin_cpu; gpuopt; "serve"; "--socket"; socket; "--store"; store;
            "--conns"; "2"; "--jobs"; "1" ]
        in
        Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin log log)
  in
  if not (S.wait_ready ~timeout_s:60.0 ~socket ()) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith "daemon did not come up"
  end;
  { pid; socket; store }

(* The running daemon, if any: a stop signal unwinds through
   [stop_live], so no daemon outlives the run. *)
let live : daemon option ref = ref None

(* Ask the daemon to shut down and reap it; SIGKILL after a grace
   period. *)
let stop (d : daemon) : unit =
  ignore (S.call ~socket:d.socket P.Shutdown);
  let deadline = Trace.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Trace.now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  remove d.socket;
  live := None

let stop_live () = Option.iter stop !live

let set_up (k : int) : daemon =
  let d = spawn k in
  live := Some d;
  List.iter
    (fun app ->
      List.iter
        (fun predict ->
          match S.call ~socket:d.socket (explore ~predict app) with
          | Ok (P.Explore_r _) -> ()
          | _ -> failwith ("warm-up explore failed: " ^ app))
        [ false; true ])
    apps;
  d

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

type cls = Warm | Cold | Lint

(* [kind] names the reply class: explore, predict, tune, ping, stats,
   cold or lint. *)
type item = { idx : int; cls : cls; kind : string; app : string; arch : string; req : P.request }

(* Warm request [gi] of a round.  No traffic log exists to draw the mix
   from, so it is assumed: it is the daemon's mixed stream of the
   repository's `bench serve` exhibit ([request_of] in bench/main.ml) —
   per 16 requests one ping, one stats, four tunes and ten explores,
   with the app changing every four requests — except that bench's one
   chaos explore per 64 requests is a predict-explore here, of each app
   in turn, as this workload sends no chaos and its warm class includes
   predict-explores. *)
let warm_request (gi : int) : string * string * P.request =
  let app = List.nth apps (gi / 4 mod 4) in
  if gi mod 64 = 31 then
    let app = List.nth apps (gi / 64 mod 4) in
    ("predict", app, explore ~predict:true app)
  else if gi mod 16 = 5 then ("ping", "", P.Ping)
  else if gi mod 16 = 13 then ("stats", "", P.Stats)
  else if gi mod 4 = 2 then ("tune", app, P.Tune { app; scale = P.Quick; arch = None; deadline_ms = None })
  else ("explore", app, explore app)

(* One round's request stream: a seeded shuffle of the warm requests,
   with the cold and lint requests placed one per equal slice of the
   stream, at a seeded place within the slice, so the heavy requests
   are spread over the whole round on every seed. *)
let schedule (rng : Util.Rng.t) : item list =
  let heavy =
    Explore.shuffle rng
      (List.map (fun (app, arch) -> (Cold, "cold", app, arch, explore ~arch app)) cold_targets
      @ List.init lints (fun _ -> (Lint, "lint", "cp", "g80", P.Lint { app = "cp"; config = None })))
  in
  let warm =
    Explore.shuffle rng
      (List.init (warm_per_heavy * List.length heavy) (fun gi ->
           let kind, app, req = warm_request gi in
           (Warm, kind, app, "g80", req)))
  in
  let slice = List.length warm / List.length heavy in
  let at = List.mapi (fun j h -> ((j * slice) + Util.Rng.int rng slice, h)) heavy in
  List.concat
    (List.mapi (fun i w -> List.filter_map (fun (k, h) -> if k = i then Some h else None) at @ [ w ]) warm)
  |> List.mapi (fun idx (cls, kind, app, arch, req) -> { idx; cls; kind; app; arch; req })

(* ------------------------------------------------------------------ *)
(* Timed phase                                                         *)
(* ------------------------------------------------------------------ *)

type reply = { item : item; latency_s : float; resp : (P.response, string) result }

let run_stream ~(socket : string) (items : item list) : reply list =
  match S.connect ~socket with
  | exception Unix.Unix_error (e, _, _) ->
    List.map (fun item -> { item; latency_s = 0.0; resp = Error (Unix.error_message e) }) items
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        List.map
          (fun item ->
            let t0 = Trace.now () in
            let resp =
              Trace.span ~op:item.idx ~layer:"Tuner.Serve" ("rpc " ^ item.kind) (fun () ->
                  try S.rpc fd item.req with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
            in
            { item; latency_s = Trace.now () -. t0; resp })
          items)

type phase = {
  replies : reply list;
  wall_s : float;
  cpu_s : float;  (* this process plus the daemon *)
  stats : P.server_stats option;  (* the daemon's counters after the phase *)
  peak_rss_mb : float;  (* the daemon's VmHWM *)
}

let timed_phase (d : daemon) (items : item list) : phase =
  let daemon_cpu () = Option.value (Proc.cpu_s d.pid) ~default:Float.nan in
  let cpu0 = Proc.self_cpu_s () +. daemon_cpu () in
  let t0 = Trace.now () in
  let replies = run_stream ~socket:d.socket items in
  let wall_s = Trace.now () -. t0 in
  let cpu_s = Proc.self_cpu_s () +. daemon_cpu () -. cpu0 in
  let stats = match S.call ~socket:d.socket P.Stats with Ok (P.Stats_r s) -> Some s | _ -> None in
  {
    replies;
    wall_s;
    cpu_s;
    stats;
    peak_rss_mb = Option.value (Proc.peak_rss_mb (`Pid d.pid)) ~default:Float.nan;
  }

(* One round on a fresh daemon: its set-up time and its timed phase.
   The daemon is stopped before the round returns; its store file
   stays. *)
let round (k : int) (items : item list) : float * daemon * phase =
  let t0 = Trace.now () in
  let d = set_up k in
  let setup_s = Trace.now () -. t0 in
  let ph = Fun.protect ~finally:(fun () -> stop d) (fun () -> timed_phase d items) in
  (setup_s, d, ph)

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

let id (r : P.measured_row) = Expected.row_id r.m_desc r.m_time_s

let rows (x : P.explore_reply) = List.map (fun (r : P.measured_row) -> (r.m_desc, r.m_time_s)) x.x_exhaustive

(* Why a reply is wrong, or [].  Explore replies must match the pinned
   direct [Search.run] bit for bit; tune must choose the pinned Pareto
   winner; every winner must pass its app's CPU reference. *)
let failures (pins : Expected.pin list) (r : reply) : string list =
  let it = r.item in
  let where = Printf.sprintf "request %d (%s %s %s)" it.idx it.kind it.app it.arch in
  let pin () = Expected.find pins ~scale:"quick" ~arch:it.arch ~app:it.app in
  let valid app (row : P.measured_row) =
    if Expected.validate app row.m_desc then [] else [ "winner fails CPU reference: " ^ row.m_desc ]
  in
  let problems =
    match (it.kind, r.resp) with
    | _, Error e -> [ "transport: " ^ e ]
    | _, Ok (P.Error_r { e_msg; _ }) -> [ "error reply: " ^ e_msg ]
    | _, Ok (P.Overloaded_r _) -> [ "overloaded" ]
    | "ping", Ok P.Pong | "stats", Ok (P.Stats_r _) -> []
    | "lint", Ok (P.Lint_r { l_report; l_errors }) ->
      if l_errors || l_report = "" then [ "lint reported errors" ] else []
    | "tune", Ok (P.Tune_r t) -> (
      match pin () with
      | None -> [ "no pin" ]
      | Some p -> (if id t.t_chosen = p.pareto then [] else [ "tune chose " ^ id t.t_chosen ]) @ valid it.app t.t_chosen)
    | ("explore" | "predict" | "cold"), Ok (P.Explore_r x) -> (
      match pin () with
      | None -> [ "no pin" ]
      | Some p ->
        let check what ok = if ok then [] else [ what ] in
        check "exhaustive digest" (Expected.digest_rows (rows x) = p.digest)
        @ check "optimum" (id x.x_best = p.best)
        @ check "pareto winner" (id x.x_selected_best = p.pareto)
        @ check "faults" (x.x_faults = [])
        @ valid it.app x.x_selected_best
        @
        match (it.kind, x.x_prune) with
        | "predict", Some pr ->
          check "race simulated" (pr.p_simulated = p.simulated)
          @ check "race winner" (id pr.p_winner = p.race)
          @ valid it.app pr.p_winner
        | "predict", None -> [ "no race in a predict reply" ]
        | _ -> [])
    | _, Ok _ -> [ "reply of the wrong shape" ]
  in
  List.map (fun p -> where ^ ": " ^ p) problems

(* Replies must also equal a direct [Search.run] done here, for one
   seeded app. *)
let direct_check ~seed (replies : reply list) : string list =
  let app = List.nth apps (abs seed mod List.length apps) in
  let served =
    List.find_map
      (fun r ->
        match (r.item.kind, r.item.app, r.resp) with
        | "explore", a, Ok (P.Explore_r x) when a = app -> Some x
        | _ -> None)
      replies
  in
  match served with
  | None -> []
  | Some x ->
    let d = Tuner.Search.run ~jobs:1 ~app_name:app (Expected.candidates ~scale:"quick" app) in
    let direct = List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) d.exhaustive in
    if List.equal (fun (a, t) (b, u) -> a = b && Int64.bits_of_float t = Int64.bits_of_float u) direct (rows x)
    then []
    else [ Printf.sprintf "served explore of %s differs from a direct Search.run" app ]

let check ?(direct = true) (pins : Expected.pin list) ~seed (replies : reply list) : int * int =
  let per = List.map (failures pins) replies in
  let direct = if direct then direct_check ~seed replies else [] in
  List.iter (List.iter (Printf.printf "FAIL %s\n")) (direct :: per);
  ( List.length replies + 1,
    List.length (List.filter (fun f -> f <> []) per) + if direct = [] then 0 else 1 )

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let latencies ?(kinds = []) (cls : cls) (replies : reply list) : float list =
  List.filter_map
    (fun r ->
      if r.item.cls = cls && (kinds = [] || List.mem r.item.kind kinds) then Some (r.latency_s *. 1000.0)
      else None)
    replies

let worst_ratio (chosen : P.explore_reply -> P.measured_row option) (replies : reply list) : float =
  List.fold_left
    (fun acc r ->
      match r.resp with
      | Ok (P.Explore_r x) -> (
        match chosen x with Some c -> Float.max acc (c.m_time_s /. x.x_best.m_time_s) | None -> acc)
      | _ -> acc)
    0.0 replies

let end_to_end ~pins ~seed ~seconds : Explore.outcome =
  pin_self ();
  let rng = Util.Rng.create seed in
  let rounds = List.init (rounds_for ~seconds) (fun k -> round k (schedule rng)) in
  List.iter (fun (_, d, _) -> remove d.store) rounds;
  let phases = List.map (fun (_, _, ph) -> ph) rounds in
  let replies = List.concat_map (fun ph -> ph.replies) phases in
  let attempted, failed = check pins ~seed replies in
  let warm = latencies Warm replies in
  let cold = latencies Cold replies in
  let tail = Option.get (Harness.tail warm) in
  let median f = Harness.median (List.map f phases) in
  Printf.printf "serve-mixed: %d request(s) in %d round(s) of %s s; warm tail p%g of %d (%d beyond); %d cold\n"
    (List.length replies) (List.length phases)
    (String.concat "/" (List.map (fun ph -> Printf.sprintf "%.3f" ph.wall_s) phases))
    tail.pct tail.n tail.beyond (List.length cold);
  let f x = Harness.F x in
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", (f (Harness.median (List.map (fun (s, _, _) -> s) rounds)), "s"));
        ("wall_s", (f (median (fun ph -> ph.wall_s)), "s"));
        ("cpu_s", (f (median (fun ph -> ph.cpu_s)), "s"));
        ("peak_rss_mb", (f (median (fun ph -> ph.peak_rss_mb)), "MB"));
        ("ok_frac", (f (float_of_int (attempted - failed) /. float_of_int attempted), "ratio"));
        ("pareto_ratio", (f (worst_ratio (fun x -> Some x.x_selected_best) replies), "ratio"));
        ( "race_ratio",
          (f (worst_ratio (fun x -> Option.map (fun (p : P.prune_row) -> p.p_winner) x.x_prune) replies), "ratio") );
        ( "req_per_s",
          (f (float_of_int (List.length replies) /. List.fold_left (fun a ph -> a +. ph.wall_s) 0.0 phases), "1/s") );
        ("warm_p50_ms", (f (Harness.median warm), "ms"));
        ("warm_tail_ms", (f tail.value, "ms"));
        ("cold_p50_ms", (f (Harness.median cold), "ms"));
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

let copy_file src dst =
  Out_channel.with_open_bin dst (fun oc -> output_string oc (Harness.read_file src))

(* Mean microseconds per call of [f] over [n] calls. *)
let per_call_us n f =
  fst (Trace.time (fun () -> for i = 0 to n - 1 do f i done)) *. 1e6 /. float_of_int n

(* Direct calls on copies of the daemon's store: open, get of every
   key, put of fresh keys. *)
let store_metrics (file : string) : (string * (Harness.value * string)) list =
  let copy = Filename.concat work_dir "copy.store" in
  copy_file file copy;
  let open_s =
    Harness.median
      (List.init 3 (fun _ ->
           let dt, st = Trace.time (fun () -> Tuner.Store.open_ ~file:copy ()) in
           Tuner.Store.close st;
           dt))
  in
  let keys =
    List.map (fun line -> String.sub line 2 32) (snd (Tuner.Store.scan ~file:copy))
    |> Array.of_list
  in
  let st = Tuner.Store.open_ ~file:copy () in
  let n = Array.length keys in
  let get_us = per_call_us (20 * n) (fun i -> ignore (Tuner.Store.get st keys.(i mod n))) in
  let put_us =
    per_call_us 200 (fun i ->
        Tuner.Store.put st
          ~key:(Digest.to_hex (Digest.string (Printf.sprintf "perfbench-%d" i)))
          ~desc:(Printf.sprintf "perfbench-%d" i) (Ok 1e-3))
  in
  Tuner.Store.close st;
  remove copy;
  [
    ("store.open_s", (Harness.F open_s, "s"));
    ("store.get_us", (Harness.F get_us, "us"));
    ("store.put_us", (Harness.F put_us, "us"));
    ("store.bytes", (Harness.I (Unix.stat file).Unix.st_size, "bytes"));
  ]

(* Replay the round's warm requests through [Serve.handle_frame] in
   this process, over a copy of the daemon's warmed store, and time the
   codec on one reply of each class. *)
let replay_metrics (file : string) (items : item list) : (string * (Harness.value * string)) list =
  let copy = Filename.concat work_dir "replay.store" in
  copy_file file copy;
  let store = Tuner.Store.open_ ~file:copy () in
  let server = S.create ~jobs:1 ~store (Apps.Serving.resolver ()) in
  let warm = List.filter (fun it -> it.cls = Warm) items in
  (* Resolve every space first, so the replay times only the warm
     request path. *)
  List.iter (fun app -> ignore (S.handle server (explore ~predict:true app))) apps;
  let frames = List.map (fun it -> (it, P.encode_request it.req)) warm in
  let handled =
    List.map
      (fun (it, frame) ->
        let dt, reply = Trace.time (fun () -> S.handle_frame server frame) in
        (it, dt *. 1000.0, reply))
      frames
  in
  Tuner.Store.close store;
  remove copy;
  (* sad's replies are the largest: an explore carries 543 rows. *)
  let codec kind =
    match List.find_opt (fun (it, _, _) -> it.kind = kind && it.app = "sad") handled with
    | None -> []
    | Some (_, _, payload) ->
      let resp = Result.get_ok (P.decode_response payload) in
      let n = 50 in
      [
        ("proto." ^ kind ^ ".encode_us", (Harness.F (per_call_us n (fun _ -> ignore (P.encode_response resp))), "us"));
        ("proto." ^ kind ^ ".decode_us", (Harness.F (per_call_us n (fun _ -> ignore (P.decode_response payload))), "us"));
        ("proto." ^ kind ^ ".reply_bytes", (Harness.I (String.length payload), "bytes"));
      ]
  in
  ("serve.handle_ms", (Harness.F (Harness.median (List.map (fun (_, ms, _) -> ms) handled)), "ms"))
  :: List.concat_map codec [ "explore"; "predict"; "tune" ]

(* The traced run runs one round's schedule twice, each on a fresh
   daemon: untraced, then traced. *)
let per_layer ~pins ~seed : Explore.outcome =
  pin_self ();
  let items = schedule (Util.Rng.create seed) in
  let _, plain_d, plain = round 0 items in
  remove plain_d.store;
  Trace.reset ();
  Trace.enabled := true;
  let gc0 = Gc.quick_stat () in
  let _, d, traced = round 1 items in
  let gc1 = Gc.quick_stat () in
  Trace.enabled := false;
  let spans = Trace.spans () in
  let self = Trace.self_times spans in
  Printf.printf "\nper-layer self time, traced phase (%.3f s wall, client side):\n%s" traced.wall_s
    (Trace.self_table self);
  let file = Printf.sprintf ".perfbench/trace-serve-mixed-%d.json" seed in
  Trace.write_chrome file spans;
  Printf.printf "chrome trace: %s (%d spans)\n" file (List.length spans);
  let a1, f1 = check pins ~seed plain.replies in
  let a2, f2 = check ~direct:false pins ~seed traced.replies in
  let p50 kinds cls = Harness.median (latencies ~kinds cls traced.replies) in
  let warm_p50 = p50 [] Warm in
  let replay = replay_metrics d.store items in
  let store = store_metrics d.store in
  remove d.store;
  let handle_ms =
    match List.assoc_opt "serve.handle_ms" replay with Some (Harness.F x, _) -> x | _ -> Float.nan
  in
  (* What the daemon's lint handler does: build the app's workbench
     (compile with the analyze stage) and lint it. *)
  let lint_s, _ =
    Trace.time (fun () ->
        match (Expected.entry "cp").workbench () with
        | Ok wb -> Apps.Workbench.lint wb
        | Error e -> failwith e)
  in
  let warm_runs =
    List.fold_left
      (fun acc r ->
        match (r.item.cls, r.resp) with
        | Warm, Ok (P.Explore_r x) -> acc + x.x_runs
        | Warm, Ok (P.Tune_r t) -> acc + t.t_runs
        | _ -> acc)
      0 traced.replies
  in
  let st = Option.get traced.stats in
  let rpc_s = Option.value (List.assoc_opt "Tuner.Serve" self) ~default:0.0 in
  let ms x = (Harness.F x, "ms") and c n = (Harness.I n, "count") in
  {
    attempted = a1 + a2;
    failed = f1 + f2;
    metrics =
      [
        ("analysis.lint_s", (Harness.F lint_s, "s"));
        ("store.hits", c st.sv_store_hits);
        ("store.misses", c st.sv_store_misses);
        ( "store.hit_ratio",
          ( Harness.F
              (float_of_int st.sv_store_hits
              /. float_of_int (max 1 (st.sv_store_hits + st.sv_store_misses))),
            "ratio" ) );
        ("store.entries", c st.sv_store_entries);
        ("serve.wire_ms", ms (warm_p50 -. handle_ms));
        ("serve.explore_p50_ms", ms (p50 [ "explore" ] Warm));
        ("serve.tune_p50_ms", ms (p50 [ "tune" ] Warm));
        ("serve.predict_p50_ms", ms (p50 [ "predict" ] Warm));
        ("serve.lint_p50_ms", ms (p50 [ "lint" ] Lint));
        ("serve.errors", c st.sv_errors);
        ("serve.runs", c st.sv_runs);
        ("serve.warm_sim_runs", c warm_runs);
        ("gc.minor_mwords", (Harness.F ((gc1.minor_words -. gc0.minor_words) /. 1e6), "Mwords"));
        ("gc.major_collections", c (gc1.major_collections - gc0.major_collections));
        ( "gc.top_heap_mb",
          (Harness.F (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0), "MB") );
        ("self.serve_s", (Harness.F rpc_s, "s"));
        ("trace.coverage", (Harness.F (rpc_s /. traced.wall_s), "ratio"));
        ("trace.overhead_s", (Harness.F (traced.wall_s -. plain.wall_s), "s"));
        ("trace.spans", c (List.length spans));
      ]
      @ store @ replay;
  }

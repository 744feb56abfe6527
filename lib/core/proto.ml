(* Wire protocol of the tuning service: framing and typed messages.

   A connection carries a sequence of frames, each a 4-byte big-endian
   unsigned length followed by that many bytes of JSON.  The module is
   pure — framing works over strings and positions, messages encode to
   and decode from JSON text — so every protocol property (round-trip,
   rejection of truncated or oversized or garbage input) is unit-testable
   without a socket, and the daemon's network loop reduces to "read
   bytes, call a total function".

   Decoding is total: any input produces either a message or a typed
   error ([frame_error] / [decode_error]), never an exception.  That is
   the daemon's first line of defense — a malicious or confused client
   must not be able to crash or hang the server with bytes alone.

   Floats (simulated seconds, reduction fractions) travel as
   hexadecimal-float strings ("0x1.8p-3"), not JSON numbers: the store
   and the bit-identical-replay guarantees need exact round-trips, and
   decimal number printing is lossy.  [Hexfloat] spells the encoding —
   %h for everything finite plus the infinities, raw IEEE bits for NaN
   payloads ("nan#7ff8000000000001"). *)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* Frames above this are rejected before any allocation: a stray or
   hostile length prefix must not make the server allocate gigabytes. *)
let default_max_frame = 16 * 1024 * 1024

type frame_error =
  | Oversized of { frame_len : int; max_len : int }
  | Truncated of { have : int; want : int }
      (* the stream ended inside a frame: [want] more bytes were due *)

let frame_error_to_string = function
  | Oversized { frame_len; max_len } ->
    Printf.sprintf "oversized frame: %d bytes declared, limit %d" frame_len max_len
  | Truncated { have; want } ->
    Printf.sprintf "truncated frame: %d byte(s) present, %d more expected" have want

let frame (payload : string) : string =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Declared length of the frame starting at [pos]; needs 4 bytes. *)
let frame_len (buf : string) ~(pos : int) : int =
  (Char.code buf.[pos] lsl 24)
  lor (Char.code buf.[pos + 1] lsl 16)
  lor (Char.code buf.[pos + 2] lsl 8)
  lor Char.code buf.[pos + 3]

(* Examine [buf] from [pos]:
   - [`Frame (payload, next)]: one complete frame; resume at [next];
   - [`Need k]: the buffer ends cleanly but [k] more bytes are needed
     to complete the frame in progress (k = 4 when no header has
     started) — feed more input and retry;
   - [`Error]: the declared length exceeds [max_len]; the stream is
     unrecoverable from here. *)
let peek_frame ?(max_len = default_max_frame) (buf : string) ~(pos : int) :
    [ `Frame of string * int | `Need of int | `Error of frame_error ] =
  let n = String.length buf in
  if pos + 4 > n then `Need (pos + 4 - n)
  else
    let len = frame_len buf ~pos in
    if len > max_len then `Error (Oversized { frame_len = len; max_len })
    else if pos + 4 + len > n then `Need (pos + 4 + len - n)
    else `Frame (String.sub buf (pos + 4) len, pos + 4 + len)

(* [`Need k] describes an incomplete stream; a closed connection turns
   it into the terminal [Truncated] error (or a clean end at k = 4 with
   nothing buffered). *)
let at_eof ~(pending : int) ~(need : int) : frame_error option =
  if pending = 0 && need = 4 then None else Some (Truncated { have = pending; want = need })

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type scale = Quick | Bench | Full

let scale_name = function Quick -> "quick" | Bench -> "bench" | Full -> "full"
let scale_of_name = function
  | "quick" -> Some Quick
  | "bench" -> Some Bench
  | "full" -> Some Full
  | _ -> None

type chaos_spec = { ch_seed : int; ch_count : int }

(* [arch] names a registry machine model ([Gpu.Arch.find]); [None]
   means the default G80, and is what pre-registry clients send — the
   field is simply absent from their frames. *)
type request =
  | Ping
  | Stats  (* server counters *)
  | Shutdown
  | Tune of { app : string; scale : scale; arch : string option; deadline_ms : int option }
      (* the paper's methodology: measure only the Pareto subset *)
  | Explore of {
      app : string;
      scale : scale;
      chaos : chaos_spec option;
      arch : string option;
      predict : bool;
          (* also run the model-driven race (PR 9); absent on the wire
             for pre-predictor clients, which decodes as [false] *)
      deadline_ms : int option;
          (* give up after this many milliseconds of server-side work
             and answer [Deadline_exceeded]; absent (pre-hardening
             clients) means no deadline *)
    }
      (* exhaustive vs pruned sweep; [chaos] injects seeded faults *)
  | Lint of { app : string; config : string option }

(* One measurement, with the simulated seconds carried exactly. *)
type measured_row = { m_desc : string; m_time_s : float }

(* One per-candidate fault, in the store's one-line fault encoding
   ([Fault.encode]).  Kept as a string at this layer so the
   protocol stays pure. *)
type fault_row = { f_desc : string; f_fault : string }

(* Summary of one model-driven race ([Prune.outcome]), flattened to
   what a client can print: how much was simulated, what won, and where
   the true optimum sat in the prediction-only ranking.  [p_rank] is
   1-based; 0 means the optimum never entered the ranking (it was
   invalid or the space was empty). *)
type prune_row = {
  p_total : int;  (* valid configurations ranked *)
  p_probes : int;  (* measured to fit the predictor *)
  p_raced : int;  (* raced at the reduced shape *)
  p_simulated : int;  (* fully simulated: probes + survivors *)
  p_winner : measured_row;
  p_rank : int;
  p_recovered : bool;  (* winner matches the exhaustive optimum's time *)
  p_model : string;  (* fitted-model digest, the bit-identity pin *)
}

type tune_reply = {
  t_app : string;
  t_arch : string;  (* registry name the measurements were taken on *)
  t_space_size : int;
  t_chosen : measured_row;
  t_selected : string list;  (* Pareto-selected descs, space order *)
  t_runs : int;  (* simulator measurements this request paid for *)
  t_store_hits : int;  (* measurements answered by the result store *)
}

type explore_reply = {
  x_app : string;
  x_arch : string;  (* registry name the measurements were taken on *)
  x_space_size : int;
  x_invalid : int;
  x_best : measured_row;
  x_selected_best : measured_row;
  x_selected : string list;
  x_exhaustive : measured_row list;  (* every survivor, space order *)
  x_reduction : float;
  x_optimum_selected : bool;
  x_faults : fault_row list;
  x_runs : int;
  x_store_hits : int;
  x_prune : prune_row option;  (* present iff the request asked [predict] *)
}

type server_stats = {
  sv_requests : int;  (* requests handled, this process *)
  sv_errors : int;  (* requests answered with an error *)
  sv_runs : int;  (* simulator measurements performed *)
  sv_store_hits : int;  (* measurements answered by the store *)
  sv_store_misses : int;  (* store-backed measurements that had to run *)
  sv_store_entries : int;  (* entries resident in the store *)
}

type error_code =
  | Unknown_app
  | Bad_request  (* well-formed protocol, unsatisfiable content *)
  | Protocol_error  (* unparseable frame or message *)
  | Server_error  (* the handler itself failed *)
  | Deadline_exceeded  (* the request's deadline_ms expired mid-work *)

let error_code_name = function
  | Unknown_app -> "unknown-app"
  | Bad_request -> "bad-request"
  | Protocol_error -> "protocol-error"
  | Server_error -> "server-error"
  | Deadline_exceeded -> "deadline-exceeded"

let error_code_of_name = function
  | "unknown-app" -> Some Unknown_app
  | "bad-request" -> Some Bad_request
  | "protocol-error" -> Some Protocol_error
  | "server-error" -> Some Server_error
  | "deadline-exceeded" -> Some Deadline_exceeded
  | _ -> None

type response =
  | Pong
  | Bye  (* shutdown acknowledged *)
  | Stats_r of server_stats
  | Tune_r of tune_reply
  | Explore_r of explore_reply
  | Lint_r of { l_report : string; l_errors : bool }
  | Error_r of { e_code : error_code; e_msg : string }
  | Overloaded_r of { o_retry_after_ms : int }
      (* the accept queue shed this connection; retry after the hinted
         backoff — safe, because content-addressed store keys make
         every request idempotent *)

type decode_error =
  | Bad_json of string  (* not JSON at all *)
  | Bad_message of string  (* JSON of the wrong shape *)

let decode_error_to_string = function
  | Bad_json msg -> "bad JSON: " ^ msg
  | Bad_message msg -> "bad message: " ^ msg

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let jfloat (f : float) : Util.Json.t = Str (Hexfloat.to_string f)
let jrow (r : measured_row) : Util.Json.t =
  Obj [ ("desc", Str r.m_desc); ("time", jfloat r.m_time_s) ]
let jfault (r : fault_row) : Util.Json.t =
  Obj [ ("desc", Str r.f_desc); ("fault", Str r.f_fault) ]
let jprune (p : prune_row) : Util.Json.t =
  Obj
    [
      ("total", Int p.p_total);
      ("probes", Int p.p_probes);
      ("raced", Int p.p_raced);
      ("simulated", Int p.p_simulated);
      ("winner", jrow p.p_winner);
      ("rank", Int p.p_rank);
      ("recovered", Bool p.p_recovered);
      ("model", Str p.p_model);
    ]

let encode_request (r : request) : string =
  let open Util.Json in
  let v =
    match r with
    | Ping -> Obj [ ("type", Str "ping") ]
    | Stats -> Obj [ ("type", Str "stats") ]
    | Shutdown -> Obj [ ("type", Str "shutdown") ]
    | Tune { app; scale; arch; deadline_ms } ->
      Obj
        ([ ("type", Str "tune"); ("app", Str app); ("scale", Str (scale_name scale)) ]
        @ (match arch with None -> [] | Some a -> [ ("arch", Str a) ])
        @ match deadline_ms with None -> [] | Some ms -> [ ("deadline_ms", Int ms) ])
    | Explore { app; scale; chaos; arch; predict; deadline_ms } ->
      Obj
        ([ ("type", Str "explore"); ("app", Str app); ("scale", Str (scale_name scale)) ]
        @ (match arch with None -> [] | Some a -> [ ("arch", Str a) ])
        @ (if predict then [ ("predict", Bool true) ] else [])
        @ (match deadline_ms with None -> [] | Some ms -> [ ("deadline_ms", Int ms) ])
        @
        match chaos with
        | None -> []
        | Some { ch_seed; ch_count } ->
          [ ("chaos", Obj [ ("seed", Int ch_seed); ("count", Int ch_count) ]) ])
    | Lint { app; config } ->
      Obj
        ([ ("type", Str "lint"); ("app", Str app) ]
        @ match config with None -> [] | Some c -> [ ("config", Str c) ])
  in
  to_string v

let encode_response (r : response) : string =
  let open Util.Json in
  let v =
    match r with
    | Pong -> Obj [ ("type", Str "pong") ]
    | Bye -> Obj [ ("type", Str "bye") ]
    | Stats_r s ->
      Obj
        [
          ("type", Str "stats");
          ("requests", Int s.sv_requests);
          ("errors", Int s.sv_errors);
          ("runs", Int s.sv_runs);
          ("store_hits", Int s.sv_store_hits);
          ("store_misses", Int s.sv_store_misses);
          ("store_entries", Int s.sv_store_entries);
        ]
    | Tune_r t ->
      Obj
        [
          ("type", Str "tune");
          ("app", Str t.t_app);
          ("arch", Str t.t_arch);
          ("space_size", Int t.t_space_size);
          ("chosen", jrow t.t_chosen);
          ("selected", List (List.map (fun d -> Str d) t.t_selected));
          ("runs", Int t.t_runs);
          ("store_hits", Int t.t_store_hits);
        ]
    | Explore_r x ->
      Obj
        ([
          ("type", Str "explore");
          ("app", Str x.x_app);
          ("arch", Str x.x_arch);
          ("space_size", Int x.x_space_size);
          ("invalid", Int x.x_invalid);
          ("best", jrow x.x_best);
          ("selected_best", jrow x.x_selected_best);
          ("selected", List (List.map (fun d -> Str d) x.x_selected));
          ("exhaustive", List (List.map jrow x.x_exhaustive));
          ("reduction", jfloat x.x_reduction);
          ("optimum_selected", Bool x.x_optimum_selected);
          ("faults", List (List.map jfault x.x_faults));
          ("runs", Int x.x_runs);
          ("store_hits", Int x.x_store_hits);
        ]
        @ match x.x_prune with None -> [] | Some p -> [ ("prune", jprune p) ])
    | Lint_r { l_report; l_errors } ->
      Obj [ ("type", Str "lint"); ("report", Str l_report); ("errors", Bool l_errors) ]
    | Error_r { e_code; e_msg } ->
      Obj [ ("type", Str "error"); ("code", Str (error_code_name e_code)); ("msg", Str e_msg) ]
    | Overloaded_r { o_retry_after_ms } ->
      Obj [ ("type", Str "overloaded"); ("retry_after_ms", Int o_retry_after_ms) ]
  in
  to_string v

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Shape of string

let shape fmt = Printf.ksprintf (fun msg -> raise (Shape msg)) fmt

let str_field (v : Util.Json.t) (k : string) : string =
  match Util.Json.member k v with
  | Some (Str s) -> s
  | Some _ -> shape "field %S is not a string" k
  | None -> shape "missing field %S" k

let int_field (v : Util.Json.t) (k : string) : int =
  match Util.Json.member k v with
  | Some (Int i) -> i
  | Some _ -> shape "field %S is not an integer" k
  | None -> shape "missing field %S" k

let bool_field (v : Util.Json.t) (k : string) : bool =
  match Util.Json.member k v with
  | Some (Bool b) -> b
  | Some _ -> shape "field %S is not a boolean" k
  | None -> shape "missing field %S" k

let float_field (v : Util.Json.t) (k : string) : float =
  match Util.Json.member k v with
  | Some (Str s) -> (
    match Hexfloat.of_string_opt s with
    | Some f -> f
    | None -> shape "field %S is not a hexadecimal float" k)
  | Some _ -> shape "field %S is not a float-carrying string" k
  | None -> shape "missing field %S" k

let list_field (v : Util.Json.t) (k : string) : Util.Json.t list =
  match Util.Json.member k v with
  | Some (List l) -> l
  | Some _ -> shape "field %S is not an array" k
  | None -> shape "missing field %S" k

let scale_field (v : Util.Json.t) : scale =
  let s = str_field v "scale" in
  match scale_of_name s with Some sc -> sc | None -> shape "unknown scale %S" s

let row_of (v : Util.Json.t) : measured_row =
  { m_desc = str_field v "desc"; m_time_s = float_field v "time" }

let fault_of (v : Util.Json.t) : fault_row =
  { f_desc = str_field v "desc"; f_fault = str_field v "fault" }

let str_item = function
  | Util.Json.Str s -> s
  | _ -> shape "array item is not a string"

(* Optional string field — absent means [None], non-string is a shape
   error (used for the arch name and the lint config). *)
let opt_str_field (v : Util.Json.t) (k : string) : string option =
  match Util.Json.member k v with
  | None -> None
  | Some (Str s) -> Some s
  | Some _ -> shape "field %S is not a string" k

(* Reply-side arch name: replies from pre-registry servers carry no
   arch field and are, by construction, G80 measurements. *)
let arch_field (v : Util.Json.t) : string =
  match opt_str_field v "arch" with Some a -> a | None -> "g80"

(* Optional boolean flag — absent means [false] (used for [predict],
   which pre-predictor clients never send). *)
let flag_field (v : Util.Json.t) (k : string) : bool =
  match Util.Json.member k v with
  | None -> false
  | Some (Bool b) -> b
  | Some _ -> shape "field %S is not a boolean" k

(* Optional integer field — absent means [None] (used for
   [deadline_ms], which pre-hardening clients never send). *)
let opt_int_field (v : Util.Json.t) (k : string) : int option =
  match Util.Json.member k v with
  | None -> None
  | Some (Int i) -> Some i
  | Some _ -> shape "field %S is not an integer" k

let prune_of (v : Util.Json.t) : prune_row =
  let winner =
    match Util.Json.member "winner" v with
    | Some w -> row_of w
    | None -> shape "missing field \"winner\""
  in
  {
    p_total = int_field v "total";
    p_probes = int_field v "probes";
    p_raced = int_field v "raced";
    p_simulated = int_field v "simulated";
    p_winner = winner;
    p_rank = int_field v "rank";
    p_recovered = bool_field v "recovered";
    p_model = str_field v "model";
  }

let decode (what : string) (of_json : Util.Json.t -> 'a) (text : string) :
    ('a, decode_error) result =
  match Util.Json.of_string text with
  | Error msg -> Error (Bad_json msg)
  | Ok v -> (
    match of_json v with
    | m -> Ok m
    | exception Shape msg -> Error (Bad_message (what ^ ": " ^ msg)))

let request_of_json (v : Util.Json.t) : request =
  match str_field v "type" with
  | "ping" -> Ping
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | "tune" ->
    Tune
      {
        app = str_field v "app";
        scale = scale_field v;
        arch = opt_str_field v "arch";
        deadline_ms = opt_int_field v "deadline_ms";
      }
  | "explore" ->
    let chaos =
      match Util.Json.member "chaos" v with
      | None -> None
      | Some c -> Some { ch_seed = int_field c "seed"; ch_count = int_field c "count" }
    in
    Explore
      {
        app = str_field v "app";
        scale = scale_field v;
        chaos;
        arch = opt_str_field v "arch";
        predict = flag_field v "predict";
        deadline_ms = opt_int_field v "deadline_ms";
      }
  | "lint" -> Lint { app = str_field v "app"; config = opt_str_field v "config" }
  | t -> shape "unknown request type %S" t

let response_of_json (v : Util.Json.t) : response =
  match str_field v "type" with
  | "pong" -> Pong
  | "bye" -> Bye
  | "stats" ->
    Stats_r
      {
        sv_requests = int_field v "requests";
        sv_errors = int_field v "errors";
        sv_runs = int_field v "runs";
        sv_store_hits = int_field v "store_hits";
        sv_store_misses = int_field v "store_misses";
        sv_store_entries = int_field v "store_entries";
      }
  | "tune" ->
    let chosen =
      match Util.Json.member "chosen" v with
      | Some c -> row_of c
      | None -> shape "missing field \"chosen\""
    in
    Tune_r
      {
        t_app = str_field v "app";
        t_arch = arch_field v;
        t_space_size = int_field v "space_size";
        t_chosen = chosen;
        t_selected = List.map str_item (list_field v "selected");
        t_runs = int_field v "runs";
        t_store_hits = int_field v "store_hits";
      }
  | "explore" ->
    let sub k =
      match Util.Json.member k v with Some c -> row_of c | None -> shape "missing field %S" k
    in
    Explore_r
      {
        x_app = str_field v "app";
        x_arch = arch_field v;
        x_space_size = int_field v "space_size";
        x_invalid = int_field v "invalid";
        x_best = sub "best";
        x_selected_best = sub "selected_best";
        x_selected = List.map str_item (list_field v "selected");
        x_exhaustive = List.map row_of (list_field v "exhaustive");
        x_reduction = float_field v "reduction";
        x_optimum_selected = bool_field v "optimum_selected";
        x_faults = List.map fault_of (list_field v "faults");
        x_runs = int_field v "runs";
        x_store_hits = int_field v "store_hits";
        x_prune =
          (match Util.Json.member "prune" v with None -> None | Some p -> Some (prune_of p));
      }
  | "lint" -> Lint_r { l_report = str_field v "report"; l_errors = bool_field v "errors" }
  | "error" ->
    let code_s = str_field v "code" in
    let e_code =
      match error_code_of_name code_s with
      | Some c -> c
      | None -> shape "unknown error code %S" code_s
    in
    Error_r { e_code; e_msg = str_field v "msg" }
  | "overloaded" -> Overloaded_r { o_retry_after_ms = int_field v "retry_after_ms" }
  | t -> shape "unknown response type %S" t

let decode_request : string -> (request, decode_error) result = decode "request" request_of_json
let decode_response : string -> (response, decode_error) result =
  decode "response" response_of_json

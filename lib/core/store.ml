(* Persistent content-addressed measurement store.

   The paper's premise is that exhaustively measuring an optimization
   space is too expensive to repeat.  This module is the tuner's one
   persistence format: any measurement performed once — by any client,
   in any session — is answered from disk forever after, so an
   interrupted sweep resumes by re-running it against the same store,
   and the tuning service shares one cache across all its clients.

   Content addressing.  An entry's key is a digest of everything that
   determines the simulated time:

     key = md5( arch digest | space digest | kernel digest )

   - the *arch digest* fixes the machine model (every limit and latency
     of [Gpu.Arch] the simulator consumes);
   - the *space digest* fixes the measurement problem: application,
     problem scale, and the full candidate-desc list (two scales of the
     same app share descs but not times, so the scale tag is part of
     the digest);
   - the *kernel digest* fixes the candidate itself: its compiled PTX
     text, its launch geometry and its config key.

   Change any of the three and the key changes, so a store can hold
   entries for many apps, scales and architectures side by side without
   any possibility of cross-talk.

   Durability.  The file is append-only: one header line, then one
   record per settled measurement, each carrying an md5 checksum of its
   payload.  Appends go through a single [output_string] + flush under
   the store lock, so concurrent writers from any number of domains
   interleave whole records.  On load, a record whose checksum or
   payload fails to parse is *rejected loudly and skipped* — corruption
   costs re-measuring the damaged entries, never a wrong answer and
   never the rest of the store.  Times round-trip exactly through the
   %h hexadecimal float format ([Hexfloat]). *)

type outcome = (float, Fault.t) result

let magic = "gpuopt-store v1"

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let hex (s : string) : string = Digest.to_hex (Digest.string s)

(* The full machine description, in a fixed order.  Two processes
   disagreeing on any of these must not share measurements.

   The first 18 elements are exactly the fields (and order) the store
   hashed before the machine model became a value, evaluated on the
   arch's own record; the remaining fields of [Gpu.Arch.t] follow as
   tagged extension entries, appended only when they differ from the
   G80's values.  G80 store keys are therefore bit-identical to every
   store written before the registry existed, while any two arches
   that differ anywhere in the record — a single latency included —
   hash differently. *)
let arch_digest ?(arch = Gpu.Arch.g80) () : string =
  let l = arch.Gpu.Arch.limits and lat = arch.Gpu.Arch.latencies in
  let legacy =
    [
      "arch";
      string_of_int l.num_sms;
      string_of_int l.max_threads_per_sm;
      string_of_int l.max_blocks_per_sm;
      string_of_int l.regs_per_sm;
      string_of_int l.smem_per_sm;
      string_of_int l.max_threads_per_block;
      string_of_int arch.shared_banks;
      Printf.sprintf "%h" arch.clock_ghz;
      Printf.sprintf "%h" arch.global_bandwidth_gbs;
      string_of_int lat.issue;
      string_of_int lat.alu;
      string_of_int lat.sfu;
      string_of_int lat.sfu_issue;
      string_of_int lat.shared;
      string_of_int lat.global;
      string_of_int lat.coalesced_tx;
      string_of_int arch.scoreboard_depth;
    ]
  in
  let g = Gpu.Arch.g80 in
  let ext tag v default = if v = default then [] else [ Printf.sprintf "%s=%d" tag v ] in
  let extensions =
    ext "warp" l.warp_size g.limits.warp_size
    @ ext "sps" l.sps_per_sm g.limits.sps_per_sm
    @ ext "sfus" l.sfus_per_sm g.limits.sfus_per_sm
    @ ext "const_hit" lat.const_hit g.latencies.const_hit
    @ ext "uncoalesced_tx" lat.uncoalesced_tx g.latencies.uncoalesced_tx
    @ ext "flops" arch.flops_per_sm_per_cycle g.flops_per_sm_per_cycle
  in
  hex (String.concat "," (legacy @ extensions))

(* The measurement problem: which app, at which problem scale, over
   which candidate set.  [scale] distinguishes e.g. the quick and the
   paper-scale matmul spaces, whose descs coincide but whose simulated
   times do not. *)
let space_digest ~(app_name : string) ~(scale : string) (descs : string list) : string =
  hex (String.concat "\n" ("space" :: app_name :: scale :: descs))

(* The candidate itself: compiled code plus launch geometry.  The PTX
   text pins every instruction the simulator will execute; the thread
   counts pin the grid the run thunk launches. *)
let kernel_digest (c : Candidate.t) : string =
  hex
    (String.concat "\n"
       [
         "kernel";
         c.desc;
         string_of_int c.threads_per_block;
         string_of_int c.threads_total;
         Ptx.Pp.kernel c.kernel;
       ])

let key ~(arch : string) ~(space : string) ~(kernel : string) : string =
  hex (String.concat "|" [ arch; space; kernel ])

let candidate_key ~(arch : string) ~(space : string) (c : Candidate.t) : string =
  key ~arch ~space ~kernel:(kernel_digest c)

(* The store address of every valid candidate of one space, worked out
   once: the arch digest from the list (a sweep targets one machine, so
   the first candidate speaks for all), the space digest over the valid
   descs under [scale] (e.g. "full", "quick", "reduced"), and each valid
   candidate's key.  The table is read-only once built, so the returned
   function is safe to call from any domain.  Asking for a candidate
   outside the space is a caller bug and raises. *)
let keys ~(app_name : string) ~(scale : string) (cands : Candidate.t list) :
    Candidate.t -> string =
  let valid = List.filter (fun (c : Candidate.t) -> c.valid) cands in
  let arch =
    arch_digest ?arch:(match cands with c :: _ -> Some c.arch | [] -> None) ()
  in
  let space =
    space_digest ~app_name ~scale (List.map (fun (c : Candidate.t) -> c.desc) valid)
  in
  let tbl = Hashtbl.create (List.length valid) in
  List.iter
    (fun (c : Candidate.t) -> Hashtbl.replace tbl c.desc (candidate_key ~arch ~space c))
    valid;
  fun (c : Candidate.t) ->
    match Hashtbl.find_opt tbl c.desc with
    | Some k -> k
    | None ->
      invalid_arg
        (Printf.sprintf "Store.keys: %s/%s: candidate %S is not a valid member of the space"
           app_name scale c.desc)

(* ------------------------------------------------------------------ *)
(* Record payloads                                                     *)
(* ------------------------------------------------------------------ *)

(* Payload format (everything after the key and the checksum):
     ok <desc %S> <time, Hexfloat encoding>
     fault <desc %S> <Fault.encode>
     blob <name %S> <content %S>
   The desc/name is carried for human inspection of the store file; the
   key alone addresses the entry.  A blob is an opaque string artifact
   (e.g. a superoptimizer rule database) stored under the same
   content-addressed, checksummed record discipline as measurements;
   [%S] escaping keeps arbitrary content — newlines included — on one
   record line. *)

(* An entry is either a settled measurement or an opaque blob. *)
type entry = Meas of string * outcome  (* desc, outcome *) | Blob of string * string
(* name, content *)

let payload_of (desc : string) (o : outcome) : string =
  match o with
  | Ok time_s -> Printf.sprintf "ok %S %s" desc (Hexfloat.to_string time_s)
  | Error f -> Printf.sprintf "fault %S %s" desc (Fault.encode f)

let payload_of_blob ~(name : string) (content : string) : string =
  Printf.sprintf "blob %S %S" name content

let payload_to (payload : string) : (string * outcome) option =
  match String.index_opt payload ' ' with
  | None -> None
  | Some i -> (
    match String.sub payload 0 i with
    | "ok" -> (
      match
        try Some (Scanf.sscanf payload "ok %S %s" (fun desc t -> (desc, t)))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      with
      | None -> None
      | Some (desc, t) -> (
        match Hexfloat.of_string_opt t with
        | Some time -> Some (desc, Ok time)
        | None -> None))
    | "fault" -> (
      match
        try Some (Scanf.sscanf payload "fault %S %n" (fun desc n -> (desc, n)))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      with
      | None -> None
      | Some (desc, ofs) -> (
        let rest = String.sub payload ofs (String.length payload - ofs) in
        match Fault.decode rest with Some f -> Some (desc, Error f) | None -> None))
    | _ -> None)

let entry_of_payload (payload : string) : entry option =
  if String.length payload >= 5 && String.sub payload 0 5 = "blob " then
    match
      try Some (Scanf.sscanf payload "blob %S %S" (fun name content -> (name, content)))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    with
    | Some (name, content) -> Some (Blob (name, content))
    | None -> None
  else Option.map (fun (desc, o) -> Meas (desc, o)) (payload_to payload)

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type corrupt_line = { cl_line : int; cl_reason : string }

type t = {
  file : string;
  durable : bool;  (* fsync every append before releasing the lock *)
  lock : Mutex.t;  (* guards every mutable field and the channel *)
  index : (string, entry) Hashtbl.t;  (* key -> measurement or blob *)
  mutable oc : out_channel option;  (* None after [close] *)
  mutable corrupt : corrupt_line list;  (* rejected records, load order *)
  mutable loaded : int;  (* entries accepted from the existing file *)
}

(* A record line: "e <key 32 hex> <md5(payload) 32 hex> <payload>". *)
let record_line (key : string) (payload : string) : string =
  Printf.sprintf "e %s %s %s\n" key (Digest.to_hex (Digest.string payload)) payload

let parse_record (line : string) : (string * entry, string) result =
  let fail reason = Error reason in
  if String.length line < 2 || String.sub line 0 2 <> "e " then fail "unknown record tag"
  else if String.length line < 2 + 32 + 1 + 32 + 1 then fail "short record"
  else
    let key = String.sub line 2 32 in
    let sum = String.sub line 35 32 in
    if line.[34] <> ' ' || line.[67] <> ' ' then fail "malformed record framing"
    else
      let payload = String.sub line 68 (String.length line - 68) in
      let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s in
      if not (is_hex key && is_hex sum) then fail "malformed digest"
      else if Digest.to_hex (Digest.string payload) <> sum then
        fail "checksum mismatch (bit rot or torn write)"
      else
        match entry_of_payload payload with
        | Some e -> Ok (key, e)
        | None -> fail "unparseable payload"

(* Open (creating if absent) the store at [file].  An existing file's
   header must match [magic] exactly — a foreign or stale-format file is
   refused with [Failure] rather than silently rewritten.  Damaged
   records are skipped and reported through [corrupt_entries]; when two
   valid records share a key (two writers raced to measure the same
   point), the later one wins — both hold the same deterministic
   outcome, so the choice is cosmetic.

   [?durable] makes every append fsync before its lock drops: a store
   killed at any instant — `kill -9` mid-append included — reopens with
   every *completed* put intact, at the price of one disk sync per new
   measurement (amortized to nothing once the space is warm).  Without
   it appends are still atomic-per-record on load (the checksum rejects
   a torn tail) but the OS may lose recently buffered records on a
   crash. *)
let open_ ?(durable = false) ~(file : string) () : t =
  let t =
    {
      file;
      durable;
      lock = Mutex.create ();
      index = Hashtbl.create 256;
      oc = None;
      corrupt = [];
      loaded = 0;
    }
  in
  let exists = Sys.file_exists file && (Unix.stat file).Unix.st_size > 0 in
  if exists then begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (match In_channel.input_line ic with
        | Some m when m = magic -> ()
        | Some m ->
          failwith
            (Printf.sprintf "Store: %s has header %S, expected %S — refusing a foreign file" file
               m magic)
        | None -> failwith (Printf.sprintf "Store: %s: missing header" file));
        let lineno = ref 1 in
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some "" ->
            incr lineno;
            loop ()
          | Some line ->
            incr lineno;
            (match parse_record line with
            | Ok (key, e) ->
              Hashtbl.replace t.index key e;
              t.loaded <- t.loaded + 1
            | Error reason ->
              t.corrupt <- { cl_line = !lineno; cl_reason = reason } :: t.corrupt);
            loop ()
        in
        loop ())
  end;
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file in
  if not exists then begin
    output_string oc (magic ^ "\n");
    flush oc;
    if durable then Unix.fsync (Unix.descr_of_out_channel oc)
  end;
  t.oc <- Some oc;
  t.corrupt <- List.rev t.corrupt;
  t

let corrupt_entries t : corrupt_line list = Mutex.protect t.lock (fun () -> t.corrupt)
let loaded t : int = Mutex.protect t.lock (fun () -> t.loaded)
let entries t : int = Mutex.protect t.lock (fun () -> Hashtbl.length t.index)
let file t : string = t.file

let get t (key : string) : outcome option =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.index key with Some (Meas (_, o)) -> Some o | _ -> None)

let get_blob t (key : string) : string option =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.index key with Some (Blob (_, c)) -> Some c | _ -> None)

let mem t (key : string) : bool = Mutex.protect t.lock (fun () -> Hashtbl.mem t.index key)

(* Record one settled outcome: index plus one appended record, flushed
   before the lock drops (atomic with respect to every other writer on
   this handle).  A key already present is left untouched — outcomes
   are deterministic, so the first write is as good as any. *)
let put_entry t ~(key : string) ~(payload : string) (e : entry) : unit =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.index key) then begin
        (match t.oc with
        | None -> invalid_arg "Store.put: store is closed"
        | Some oc ->
          output_string oc (record_line key payload);
          flush oc;
          (* Durable appends reach the disk before the lock drops: a
             crash after this point cannot lose the record, a crash
             before it leaves at worst a torn tail the checksum rejects
             on reload. *)
          if t.durable then Unix.fsync (Unix.descr_of_out_channel oc));
        Hashtbl.replace t.index key e
      end)

let put t ~(key : string) ~(desc : string) (o : outcome) : unit =
  put_entry t ~key ~payload:(payload_of desc o) (Meas (desc, o))

(* Record an opaque artifact under [key]; same first-write-wins
   discipline as measurements. *)
let put_blob t ~(key : string) ~(name : string) (content : string) : unit =
  put_entry t ~key ~payload:(payload_of_blob ~name content) (Blob (name, content))

let close t : unit =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        (try close_out oc with Sys_error _ -> ());
        t.oc <- None)

(* ------------------------------------------------------------------ *)
(* Offline maintenance: fsck and compaction                            *)
(* ------------------------------------------------------------------ *)

(* What a scan of the file found.  [fs_reclaimable] counts the bytes
   occupied by lines a compaction would drop: corrupt records,
   duplicate keys (the first valid record wins, matching [put_entry]'s
   first-write-wins discipline) and blank lines. *)
type fsck_report = {
  fs_file : string;
  fs_bytes : int;  (* file size scanned *)
  fs_records : int;  (* non-blank lines after the header *)
  fs_valid : int;  (* distinct keys with a valid record *)
  fs_duplicates : int;  (* valid records whose key already appeared *)
  fs_corrupt : corrupt_line list;  (* rejected records, file order *)
  fs_reclaimable : int;  (* bytes compaction would reclaim *)
}

(* Scan [file] without touching it.  The header is validated exactly as
   [open_] does; the per-line verdicts reuse [parse_record], so fsck
   and load can never disagree about which records are good.  Returns
   the report plus the surviving record lines (first valid line per
   key, file order) for [compact] to rewrite. *)
let scan ~(file : string) : fsck_report * string list =
  let size = (Unix.stat file).Unix.st_size in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match In_channel.input_line ic with
      | Some m when m = magic -> ()
      | Some m ->
        failwith
          (Printf.sprintf "Store: %s has header %S, expected %S — refusing a foreign file" file m
             magic)
      | None -> failwith (Printf.sprintf "Store: %s: missing header" file));
      let seen = Hashtbl.create 256 in
      let keep = ref [] in
      let records = ref 0 and valid = ref 0 and dups = ref 0 and reclaim = ref 0 in
      let corrupt = ref [] in
      let lineno = ref 1 in
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some "" ->
          incr lineno;
          incr reclaim;  (* the blank line's newline *)
          loop ()
        | Some line ->
          incr lineno;
          incr records;
          (match parse_record line with
          | Ok (key, _) ->
            if Hashtbl.mem seen key then begin
              incr dups;
              reclaim := !reclaim + String.length line + 1
            end
            else begin
              Hashtbl.replace seen key ();
              incr valid;
              keep := line :: !keep
            end
          | Error reason ->
            corrupt := { cl_line = !lineno; cl_reason = reason } :: !corrupt;
            reclaim := !reclaim + String.length line + 1);
          loop ()
      in
      loop ();
      ( {
          fs_file = file;
          fs_bytes = size;
          fs_records = !records;
          fs_valid = !valid;
          fs_duplicates = !dups;
          fs_corrupt = List.rev !corrupt;
          fs_reclaimable = !reclaim;
        },
        List.rev !keep ))

let fsck ~(file : string) : fsck_report = fst (scan ~file)

(* Rewrite [file] down to its valid, deduplicated records: write header
   + survivors to a temp file in the same directory, fsync it, and
   rename it over the original (atomic on POSIX — a crash mid-compact
   leaves either the old file or the new one, never a mix).  Returns
   the scan report and the bytes actually reclaimed.  The store must
   not be open for writing elsewhere during compaction. *)
let compact ~(file : string) : fsck_report * int =
  let report, keep = scan ~file in
  let tmp = file ^ ".compact" in
  let oc = open_out_gen [ Open_creat; Open_trunc; Open_wronly ] 0o644 tmp in
  (try
     output_string oc (magic ^ "\n");
     List.iter
       (fun line ->
         output_string oc line;
         output_char oc '\n')
       keep;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  let new_size = (Unix.stat tmp).Unix.st_size in
  Sys.rename tmp file;
  (report, report.fs_bytes - new_size)

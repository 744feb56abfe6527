(* Spans recorded from outside the program: the runner wraps each call
   it makes into a layer (a registry builder, [Search.run], one
   candidate's simulator thunk, one rpc) in [span], which records name,
   layer, start, end, parent span and op id.  Nothing inside the
   program is instrumented.

   Spans stay in memory and are written once, at exit, as Chrome
   trace-event JSON (load it in chrome://tracing or Perfetto).  With
   tracing off, [span] is a single branch around the call.

   Every workload makes its calls from one domain, so one stack of open
   spans serves.  A span's self time is its duration minus its
   children's. *)

type span = {
  id : int;
  name : string;
  layer : string;
  op : int;  (* the op (one app's exploration, one request) it serves *)
  parent : int;  (* 0 at the root *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let next_id = ref 1
let finished : span list ref = ref []

(* Open spans, innermost first: (span id, op id). *)
let stack : (int * int) list ref = ref []

let now = Unix.gettimeofday

(* Seconds taken by [f], with its result. *)
let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Run [f] inside a span.  [op] defaults to the enclosing span's op. *)
let span ?op ~layer (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let st = !stack in
    let parent, parent_op = match st with (p, o) :: _ -> (p, o) | [] -> (0, 0) in
    let op = Option.value op ~default:parent_op in
    let s = { id = !next_id; name; layer; op; parent; t0 = now (); t1 = Float.nan } in
    incr next_id;
    stack := (s.id, op) :: st;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := st;
        finished := s :: !finished)
      f
  end

let spans () : span list = List.rev !finished

let reset () = finished := []

(* Self time per layer, in seconds, largest first. *)
let self_times (spans : span list) : (string * float) list =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value (Hashtbl.find_opt by_layer s.layer) ~default:0.0))
    spans;
  Hashtbl.fold (fun l t acc -> (l, t) :: acc) by_layer []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let self_table (rows : (string * float) list) : string =
  let total = List.fold_left (fun a (_, t) -> a +. t) 0.0 rows in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "%-22s %10s %7s\n" "layer" "self s" "share");
  List.iter
    (fun (l, t) ->
      Buffer.add_string b
        (Printf.sprintf "%-22s %10.3f %6.1f%%\n" l t (100.0 *. t /. Float.max total 1e-12)))
    rows;
  Buffer.add_string b (Printf.sprintf "%-22s %10.3f\n" "total" total);
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome (file : string) (spans : span list) : unit =
  let origin = List.fold_left (fun a s -> Float.min a s.t0) Float.infinity spans in
  let us t = Util.Json.Float (Float.round ((t -. origin) *. 1e6)) in
  let event s =
    Util.Json.Obj
      [
        ("name", Str s.name);
        ("cat", Str s.layer);
        ("ph", Str "X");
        ("ts", us s.t0);
        ("dur", Float (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Int 1);
        ("tid", Int 1);
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("op", Int s.op) ]);
      ]
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Util.Json.to_string
           (Util.Json.Obj
              [ ("traceEvents", List (List.map event spans)); ("displayTimeUnit", Str "ms") ])))

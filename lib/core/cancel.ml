(* Cooperative cancellation for long-running sweeps.

   A token is a thread-safe flag plus an optional absolute wall-clock
   deadline.  [Measure.measure_outcomes] polls it between candidates —
   its one abort seam — so a cancelled sweep stops paying for the
   simulator at the next candidate boundary and aborts with the typed
   [Cancelled] exception.  Nothing is ever *un*-measured: every outcome
   settled before the token tripped is cached (and stored, when a
   store is attached), so a retried request resumes from them.

   Determinism: a token that never trips is invisible — it changes no
   measured value and no ordering.  A token that does trip only decides
   *how far* a sweep got, never what any completed measurement reads;
   this is the property that makes deadline-bounded serving safe on top
   of the content-addressed store. *)

type t = {
  lock : Mutex.t;
  mutable flag : bool;  (* explicit [cancel] was called *)
  deadline : float option;  (* absolute [Unix.gettimeofday] cutoff *)
}

(* Raised out of a sweep whose token tripped while measurements were
   still outstanding.  A sweep whose work was already settled (warm
   cache, warm store) completes normally even on an expired token —
   answering from memory does not miss a deadline. *)
exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Tuner.Cancel.Cancelled"
    | _ -> None)

let create ?deadline () : t = { lock = Mutex.create (); flag = false; deadline }

(* Token that trips [ms] milliseconds from now (immediately for
   [ms <= 0] — an already-expired deadline cancels all new work). *)
let with_deadline_ms (ms : int) : t =
  create ~deadline:(Unix.gettimeofday () +. (float_of_int ms /. 1000.0)) ()

let cancel (t : t) : unit = Mutex.protect t.lock (fun () -> t.flag <- true)

let cancelled (t : t) : bool =
  Mutex.protect t.lock (fun () -> t.flag)
  || match t.deadline with None -> false | Some d -> Unix.gettimeofday () >= d

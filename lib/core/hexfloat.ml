(* Exact textual float encoding shared by the wire protocol and the
   result store.

   [%h] hex-floats round-trip every finite float and both infinities
   bit-for-bit, and [float_of_string] even preserves a NaN's sign
   ("-nan") — but every NaN *payload* collapses to the canonical quiet
   NaN: OCaml's own [Float.nan] is 0x7ff8000000000001, which prints as
   "nan" and reads back as 0x7ff8000000000000.  "Bit-exact" is this
   repo's testable equality (served results vs direct search, resumed
   sweeps vs uninterrupted ones), so NaNs are carried with their raw
   IEEE-754 bits spelled out instead: "nan#7ff8000000000001".  Plain
   "nan"/"-nan" (foreign writers, hand-edited files) still parse, to
   the canonical quiet NaN of that sign. *)

let to_string (f : float) : string =
  if Float.is_nan f then Printf.sprintf "nan#%Lx" (Int64.bits_of_float f)
  else Printf.sprintf "%h" f

let of_string_opt (s : string) : float option =
  let n = String.length s in
  if n > 4 && String.sub s 0 4 = "nan#" then
    match Int64.of_string_opt ("0x" ^ String.sub s 4 (n - 4)) with
    | Some bits ->
      let f = Int64.float_of_bits bits in
      (* refuse "nan#" wrapping of a non-NaN bit pattern: there is
         exactly one spelling of every value *)
      if Float.is_nan f then Some f else None
    | None -> None
  else float_of_string_opt s

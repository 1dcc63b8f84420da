(* splitmix64: the one deterministic generator behind the fault injector
   and the fuzzer. Each caller reduces [next] to a range its own way. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

(* [(seed + 1) * golden] decorrelates small consecutive seeds. *)
let create seed = { state = Int64.mul (Int64.of_int (seed + 1)) golden }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

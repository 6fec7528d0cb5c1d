let log2 x = log x /. log 2.

let log_star x =
  let rec go x i = if x <= 1. then i else go (log2 x) (i + 1) in
  go x 0

let theorem1_det ~delta ~n = Float.min (log2 delta) (log n /. log delta)

let theorem1_rand ~delta ~n =
  Float.min (log2 delta) (log (Float.max 2. (log n)) /. log delta)

let corollary2_det ~delta ~n = Float.min (log2 delta) (sqrt (log2 n))

let corollary2_rand ~delta ~n =
  Float.min (log2 delta) (sqrt (log2 (Float.max 2. (log2 n))))

let best_delta_det ~n = Float.pow 2. (sqrt (log2 n))

let loglog x = log2 (Float.max 2. (log2 x))

let bbo20_det ~delta ~n =
  Float.min
    (log2 delta /. Float.max 1. (loglog delta))
    (sqrt (log2 n /. Float.max 1. (loglog n)))

let bbhors_det ~delta ~b ~n =
  Float.min (delta /. b) (log2 n /. Float.max 1. (loglog n))

let upper_mis ~delta ~n = delta +. float_of_int (log_star n)

let upper_kods ~delta ~k ~n =
  (delta /. Float.max 1. k) +. float_of_int (log_star n)

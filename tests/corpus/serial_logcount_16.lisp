; 16-bit population count by a recursive bit-serial sum: the low bit
; plus the count of the remaining bits.  There is no zp, so the
; recursion stops at (< n 1).

(defun cnt (x n)
  (if (< n 1)
      0
    (+ (logand x 1) (cnt (ash x -1) (- n 1)))))

(def-gl-thm serial-logcount-16-correct
  :hyp (unsigned-byte-p 16 x)
  :concl (equal (cnt x 16)
                (logcount x))
  :g-bindings `((x ,(g-int 0 1 17))))

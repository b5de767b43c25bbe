// @generated by `pathway_ode::JacobianPattern::emit_compiled_lu`: do not edit.
// Regenerate with `cargo run -p pathway-photosynthesis --example emit_calvin_lu`.

use pathway_ode::CompiledLu;

/// The static-pivot LU of a 24x24 pattern with 63 non-zeros,
/// 74 in `L + U` and 24 updates, in straight-line code.
pub(crate) const COMPILED_LU: CompiledLu = CompiledLu {
    fingerprint: 0x9567b3cb4e94cf27,
    factor,
    substitute,
};

const MIN_PIVOT: f64 = 1e-13;
const MAX_MULTIPLIER: f64 = 100.0;

fn factor(diagonal: f64, values: &[f64], lu: &mut [f64], inverse_pivots: &mut [f64]) -> bool {
    let values: &[f64; 63] = values.try_into().expect("values of S");
    let lu: &mut [f64; 576] = lu.try_into().expect("LU storage");
    let inverse_pivots: &mut [f64; 24] = inverse_pivots.try_into().expect("pivots");
    lu[106] = 0.0;
    lu[130] = 0.0;
    lu[154] = 0.0;
    lu[178] = 0.0;
    lu[202] = 0.0;
    lu[226] = 0.0;
    lu[282] = 0.0;
    lu[381] = 0.0;
    lu[476] = 0.0;
    lu[515] = 0.0;
    lu[522] = 0.0;
    lu[250] = -values[0];
    lu[274] = -values[1];
    lu[82] = -values[2];
    lu[275] = -values[3];
    lu[59] = -values[4];
    lu[50] = -values[5];
    lu[506] = -values[6];
    lu[525] = -values[7];
    lu[405] = -values[8];
    lu[549] = -values[9];
    lu[501] = -values[10];
    lu[429] = -values[11];
    lu[477] = -values[12];
    lu[453] = -values[13];
    lu[309] = -values[14];
    lu[400] = -values[15];
    lu[544] = -values[16];
    lu[526] = -values[17];
    lu[550] = -values[18];
    lu[502] = -values[19];
    lu[454] = -values[20];
    lu[524] = -values[21];
    lu[500] = -values[22];
    lu[428] = -values[23];
    lu[425] = -values[24];
    lu[473] = -values[25];
    lu[523] = -values[26];
    lu[475] = -values[27];
    lu[451] = -values[28];
    lu[258] = -values[29];
    lu[450] = -values[30];
    lu[75] = -values[31];
    lu[99] = -values[32];
    lu[100] = -values[33];
    lu[124] = -values[34];
    lu[125] = -values[35];
    lu[149] = -values[36];
    lu[150] = -values[37];
    lu[174] = -values[38];
    lu[175] = -values[39];
    lu[199] = -values[40];
    lu[200] = -values[41];
    lu[224] = -values[42];
    lu[273] = -values[43];
    lu[225] = -values[44];
    lu[300] = -values[45];
    lu[372] = -values[46];
    lu[375] = -values[47];
    lu[351] = -values[48];
    lu[350] = -values[49];
    lu[326] = -values[50];
    lu[38] = -values[51];
    lu[349] = -values[52];
    lu[325] = -values[53];
    lu[37] = -values[54];
    lu[25] = -values[55];
    lu[1] = -values[56];
    lu[0] = -values[57];
    lu[407] = -values[58];
    lu[551] = -values[59];
    lu[383] = -values[60];
    lu[359] = -values[61];
    lu[575] = -values[62];
    lu[0] += diagonal;
    lu[25] += diagonal;
    lu[50] += diagonal;
    lu[75] += diagonal;
    lu[100] += diagonal;
    lu[125] += diagonal;
    lu[150] += diagonal;
    lu[175] += diagonal;
    lu[200] += diagonal;
    lu[225] += diagonal;
    lu[250] += diagonal;
    lu[275] += diagonal;
    lu[300] += diagonal;
    lu[325] += diagonal;
    lu[350] += diagonal;
    lu[375] += diagonal;
    lu[400] += diagonal;
    lu[425] += diagonal;
    lu[450] += diagonal;
    lu[475] += diagonal;
    lu[500] += diagonal;
    lu[525] += diagonal;
    lu[550] += diagonal;
    lu[575] += diagonal;
    // Pivot 0: state 22.
    let pivot = lu[0];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[0] = inverse;
    // Pivot 1: state 21.
    let pivot = lu[25];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[1] = inverse;
    // Pivot 2: state 2.
    let pivot = lu[50];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[2] = inverse;
    let l = lu[506] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[506] = l;
    lu[515] -= l * lu[59];
    // Pivot 3: state 10.
    let pivot = lu[75];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[3] = inverse;
    let l = lu[99] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[99] = l;
    lu[106] -= l * lu[82];
    // Pivot 4: state 11.
    let pivot = lu[100];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[4] = inverse;
    let l = lu[124] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[124] = l;
    lu[130] -= l * lu[106];
    // Pivot 5: state 12.
    let pivot = lu[125];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[5] = inverse;
    let l = lu[149] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[149] = l;
    lu[154] -= l * lu[130];
    // Pivot 6: state 13.
    let pivot = lu[150];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[6] = inverse;
    let l = lu[174] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[174] = l;
    lu[178] -= l * lu[154];
    // Pivot 7: state 14.
    let pivot = lu[175];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[7] = inverse;
    let l = lu[199] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[199] = l;
    lu[202] -= l * lu[178];
    // Pivot 8: state 15.
    let pivot = lu[200];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[8] = inverse;
    let l = lu[224] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[224] = l;
    lu[226] -= l * lu[202];
    // Pivot 9: state 16.
    let pivot = lu[225];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[9] = inverse;
    let l = lu[273] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[273] = l;
    lu[274] -= l * lu[226];
    // Pivot 10: state 0.
    let pivot = lu[250];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[10] = inverse;
    let l = lu[274] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[274] = l;
    lu[282] -= l * lu[258];
    // Pivot 11: state 1.
    let pivot = lu[275];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[11] = inverse;
    let l = lu[515] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[515] = l;
    lu[522] -= l * lu[282];
    // Pivot 12: state 17.
    let pivot = lu[300];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[12] = inverse;
    let l = lu[372] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[372] = l;
    lu[381] -= l * lu[309];
    // Pivot 13: state 20.
    let pivot = lu[325];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[13] = inverse;
    let l = lu[349] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[349] = l;
    lu[350] -= l * lu[326];
    // Pivot 14: state 19.
    let pivot = lu[350];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[14] = inverse;
    // Pivot 15: state 18.
    let pivot = lu[375];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[15] = inverse;
    // Pivot 16: state 4.
    let pivot = lu[400];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[16] = inverse;
    let l = lu[544] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[544] = l;
    lu[549] -= l * lu[405];
    lu[551] -= l * lu[407];
    // Pivot 17: state 7.
    let pivot = lu[425];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[17] = inverse;
    let l = lu[473] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[473] = l;
    lu[476] -= l * lu[428];
    lu[477] -= l * lu[429];
    // Pivot 18: state 9.
    let pivot = lu[450];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[18] = inverse;
    let l = lu[522] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[522] = l;
    lu[523] -= l * lu[451];
    lu[525] -= l * lu[453];
    lu[526] -= l * lu[454];
    // Pivot 19: state 8.
    let pivot = lu[475];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[19] = inverse;
    let l = lu[523] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[523] = l;
    lu[524] -= l * lu[476];
    lu[525] -= l * lu[477];
    // Pivot 20: state 6.
    let pivot = lu[500];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[20] = inverse;
    let l = lu[524] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[524] = l;
    lu[525] -= l * lu[501];
    lu[526] -= l * lu[502];
    // Pivot 21: state 3.
    let pivot = lu[525];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[21] = inverse;
    let l = lu[549] * inverse;
    if l.is_nan() || l.abs() > MAX_MULTIPLIER {
        return false;
    }
    lu[549] = l;
    lu[550] -= l * lu[526];
    // Pivot 22: state 5.
    let pivot = lu[550];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[22] = inverse;
    // Pivot 23: state 23.
    let pivot = lu[575];
    if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
        return false;
    }
    let inverse = 1.0 / pivot;
    inverse_pivots[23] = inverse;
    true
}

fn substitute(lu: &[f64], inverse_pivots: &[f64], a: &mut [f64], b: &mut [f64]) {
    let lu: &[f64; 576] = lu.try_into().expect("LU storage");
    let inverse_pivots: &[f64; 24] = inverse_pivots.try_into().expect("pivots");
    let a: &mut [f64; 24] = a.try_into().expect("one entry per state");
    let b: &mut [f64; 24] = b.try_into().expect("one entry per state");
    a[11] -= lu[99] * a[10];
    b[11] -= lu[99] * b[10];
    a[12] -= lu[124] * a[11];
    b[12] -= lu[124] * b[11];
    a[13] -= lu[149] * a[12];
    b[13] -= lu[149] * b[12];
    a[14] -= lu[174] * a[13];
    b[14] -= lu[174] * b[13];
    a[15] -= lu[199] * a[14];
    b[15] -= lu[199] * b[14];
    a[16] -= lu[224] * a[15];
    b[16] -= lu[224] * b[15];
    a[1] -= lu[273] * a[16];
    b[1] -= lu[273] * b[16];
    a[1] -= lu[274] * a[0];
    b[1] -= lu[274] * b[0];
    a[19] -= lu[349] * a[20];
    b[19] -= lu[349] * b[20];
    a[18] -= lu[372] * a[17];
    b[18] -= lu[372] * b[17];
    a[8] -= lu[473] * a[7];
    b[8] -= lu[473] * b[7];
    a[3] -= lu[506] * a[2];
    b[3] -= lu[506] * b[2];
    a[3] -= lu[515] * a[1];
    b[3] -= lu[515] * b[1];
    a[3] -= lu[522] * a[9];
    b[3] -= lu[522] * b[9];
    a[3] -= lu[523] * a[8];
    b[3] -= lu[523] * b[8];
    a[3] -= lu[524] * a[6];
    b[3] -= lu[524] * b[6];
    a[5] -= lu[544] * a[4];
    b[5] -= lu[544] * b[4];
    a[5] -= lu[549] * a[3];
    b[5] -= lu[549] * b[3];
    a[23] *= inverse_pivots[23];
    b[23] *= inverse_pivots[23];
    a[5] -= lu[551] * a[23];
    b[5] -= lu[551] * b[23];
    a[5] *= inverse_pivots[22];
    b[5] *= inverse_pivots[22];
    a[3] -= lu[526] * a[5];
    b[3] -= lu[526] * b[5];
    a[3] *= inverse_pivots[21];
    b[3] *= inverse_pivots[21];
    a[6] -= lu[501] * a[3];
    b[6] -= lu[501] * b[3];
    a[6] -= lu[502] * a[5];
    b[6] -= lu[502] * b[5];
    a[6] *= inverse_pivots[20];
    b[6] *= inverse_pivots[20];
    a[8] -= lu[476] * a[6];
    b[8] -= lu[476] * b[6];
    a[8] -= lu[477] * a[3];
    b[8] -= lu[477] * b[3];
    a[8] *= inverse_pivots[19];
    b[8] *= inverse_pivots[19];
    a[9] -= lu[451] * a[8];
    b[9] -= lu[451] * b[8];
    a[9] -= lu[453] * a[3];
    b[9] -= lu[453] * b[3];
    a[9] -= lu[454] * a[5];
    b[9] -= lu[454] * b[5];
    a[9] *= inverse_pivots[18];
    b[9] *= inverse_pivots[18];
    a[7] -= lu[428] * a[6];
    b[7] -= lu[428] * b[6];
    a[7] -= lu[429] * a[3];
    b[7] -= lu[429] * b[3];
    a[7] *= inverse_pivots[17];
    b[7] *= inverse_pivots[17];
    a[4] -= lu[405] * a[3];
    b[4] -= lu[405] * b[3];
    a[4] -= lu[407] * a[23];
    b[4] -= lu[407] * b[23];
    a[4] *= inverse_pivots[16];
    b[4] *= inverse_pivots[16];
    a[18] -= lu[381] * a[3];
    b[18] -= lu[381] * b[3];
    a[18] -= lu[383] * a[23];
    b[18] -= lu[383] * b[23];
    a[18] *= inverse_pivots[15];
    b[18] *= inverse_pivots[15];
    a[19] -= lu[351] * a[18];
    b[19] -= lu[351] * b[18];
    a[19] -= lu[359] * a[23];
    b[19] -= lu[359] * b[23];
    a[19] *= inverse_pivots[14];
    b[19] *= inverse_pivots[14];
    a[20] -= lu[326] * a[19];
    b[20] -= lu[326] * b[19];
    a[20] *= inverse_pivots[13];
    b[20] *= inverse_pivots[13];
    a[17] -= lu[309] * a[3];
    b[17] -= lu[309] * b[3];
    a[17] *= inverse_pivots[12];
    b[17] *= inverse_pivots[12];
    a[1] -= lu[282] * a[9];
    b[1] -= lu[282] * b[9];
    a[1] *= inverse_pivots[11];
    b[1] *= inverse_pivots[11];
    a[0] -= lu[258] * a[9];
    b[0] -= lu[258] * b[9];
    a[0] *= inverse_pivots[10];
    b[0] *= inverse_pivots[10];
    a[16] -= lu[226] * a[0];
    b[16] -= lu[226] * b[0];
    a[16] *= inverse_pivots[9];
    b[16] *= inverse_pivots[9];
    a[15] -= lu[202] * a[0];
    b[15] -= lu[202] * b[0];
    a[15] *= inverse_pivots[8];
    b[15] *= inverse_pivots[8];
    a[14] -= lu[178] * a[0];
    b[14] -= lu[178] * b[0];
    a[14] *= inverse_pivots[7];
    b[14] *= inverse_pivots[7];
    a[13] -= lu[154] * a[0];
    b[13] -= lu[154] * b[0];
    a[13] *= inverse_pivots[6];
    b[13] *= inverse_pivots[6];
    a[12] -= lu[130] * a[0];
    b[12] -= lu[130] * b[0];
    a[12] *= inverse_pivots[5];
    b[12] *= inverse_pivots[5];
    a[11] -= lu[106] * a[0];
    b[11] -= lu[106] * b[0];
    a[11] *= inverse_pivots[4];
    b[11] *= inverse_pivots[4];
    a[10] -= lu[82] * a[0];
    b[10] -= lu[82] * b[0];
    a[10] *= inverse_pivots[3];
    b[10] *= inverse_pivots[3];
    a[2] -= lu[59] * a[1];
    b[2] -= lu[59] * b[1];
    a[2] *= inverse_pivots[2];
    b[2] *= inverse_pivots[2];
    a[21] -= lu[37] * a[20];
    b[21] -= lu[37] * b[20];
    a[21] -= lu[38] * a[19];
    b[21] -= lu[38] * b[19];
    a[21] *= inverse_pivots[1];
    b[21] *= inverse_pivots[1];
    a[22] -= lu[1] * a[21];
    b[22] -= lu[1] * b[21];
    a[22] *= inverse_pivots[0];
    b[22] *= inverse_pivots[0];
}
